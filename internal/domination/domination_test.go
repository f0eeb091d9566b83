package domination

import (
	"math/rand"
	"slices"
	"testing"
)

var dnaLetters = []byte("ACGT")

// bruteDominated is the definitional oracle: every occurrence of gram
// in text is immediately preceded by prev.
func bruteDominated(text []byte, gram []byte, prev byte) bool {
	q := len(gram)
	occurrences := 0
	for i := 0; i+q <= len(text); i++ {
		if string(text[i:i+q]) != string(gram) {
			continue
		}
		occurrences++
		if i == 0 || text[i-1] != prev {
			return false
		}
	}
	return occurrences > 0
}

func randDNA(n int, seed int64) []byte { return randText(dnaLetters, n, seed) }

func TestDominatedMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 40; trial++ {
		text := randDNA(100+rng.Intn(200), int64(trial))
		q := 2 + rng.Intn(4)
		idx, err := Build(text, q, dnaLetters)
		if err != nil {
			t.Fatal(err)
		}
		// Probe every gram present in the text plus some random ones.
		for i := 0; i+q <= len(text); i += 3 {
			gram := text[i : i+q]
			for _, prev := range dnaLetters {
				got := idx.Dominated(gram, prev)
				want := bruteDominated(text, gram, prev)
				if got != want {
					t.Fatalf("Dominated(%q, %q) = %v, want %v (text %q)",
						gram, prev, got, want, text)
				}
			}
		}
	}
}

func TestDominationChainExample(t *testing.T) {
	// In text ACGTACGT, every occurrence of CGT is preceded by A, so
	// the CGT fork is dominated when the query has A before it; GTA
	// occurs once (position 2... also 6? GTA at 2 only since position
	// 6 would need index 6..8) and is preceded by C.
	text := []byte("ACGTACGT")
	idx, err := Build(text, 3, dnaLetters)
	if err != nil {
		t.Fatal(err)
	}
	if !idx.Dominated([]byte("CGT"), 'A') {
		t.Error("CGT should be dominated by preceding A")
	}
	if idx.Dominated([]byte("CGT"), 'C') {
		t.Error("CGT is never preceded by C")
	}
	// ACG occurs at 0 and 4; position 0 has no predecessor, so ACG can
	// never be dominated — the paper's first-position rule.
	for _, prev := range dnaLetters {
		if idx.Dominated([]byte("ACG"), prev) {
			t.Errorf("ACG dominated by %q despite its position-0 occurrence", prev)
		}
	}
}

func TestAbsentGramNeverDominated(t *testing.T) {
	text := []byte("ACGTACGT")
	idx, _ := Build(text, 4, dnaLetters)
	if idx.state([]byte("ACGT")) == absent {
		t.Error("ACGT occurs in the text")
	}
	if idx.state([]byte("AAAA")) != absent {
		t.Error("AAAA should be absent")
	}
	if idx.Dominated([]byte("AAAA"), 'A') {
		t.Error("absent gram cannot be dominated")
	}
}

func TestBuildRejectsBadQ(t *testing.T) {
	if _, err := Build([]byte("ACGT"), 0, dnaLetters); err == nil {
		t.Error("q=0 accepted")
	}
}

func TestSeparatorGramsNotIndexed(t *testing.T) {
	idx, err := Build([]byte("ACG#ACG"), 3, dnaLetters)
	if err != nil {
		t.Fatal(err)
	}
	if idx.state([]byte("CG#")) != absent {
		t.Error("gram containing separator was indexed")
	}
	// The second ACG is preceded by '#', which is outside the
	// alphabet: ACG must not be dominated by anything.
	if idx.state([]byte("ACG")) != mixed {
		t.Errorf("ACG state = %d, want mixed", idx.state([]byte("ACG")))
	}
	for _, prev := range dnaLetters {
		if idx.Dominated([]byte("ACG"), prev) {
			t.Errorf("ACG dominated by %q despite separator predecessor", prev)
		}
	}
}

func TestSizeBytes(t *testing.T) {
	// DNA at q = 4 is a flat table of the whole gram space, whatever
	// the text: the saturation behind Figure 11(a) from the start.
	for _, n := range []int{100, 50000} {
		idx, _ := Build(randDNA(n, 99), 4, dnaLetters)
		if got := idx.SizeBytes(); got != 2*256 {
			t.Errorf("n=%d: SizeBytes = %d, want %d", n, got, 2*256)
		}
	}
	// Protein at q = 4 keeps only the grams that occur, so a longer
	// text needs more.
	small, _ := Build(randText(proteinLetters, 2000, 1), 4, proteinLetters)
	big, _ := Build(randText(proteinLetters, 20000, 2), 4, proteinLetters)
	if small.byGram == nil || small.SizeBytes() <= 0 || big.SizeBytes() <= small.SizeBytes() {
		t.Errorf("protein SizeBytes %d then %d, want a growing map", small.SizeBytes(), big.SizeBytes())
	}
}

func TestFallbackAlphabet(t *testing.T) {
	// Force the string-keyed path with a wide alphabet and large q.
	letters := make([]byte, 62)
	for i := range letters {
		letters[i] = byte('!' + i)
	}
	rng := rand.New(rand.NewSource(101))
	text := make([]byte, 400)
	for i := range text {
		text[i] = letters[rng.Intn(len(letters))]
	}
	idx, err := Build(text, 11, letters)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+11 <= len(text); i += 7 {
		gram := text[i : i+11]
		for _, prev := range []byte{letters[0], text[max(0, i-1)]} {
			if got, want := idx.Dominated(gram, prev), bruteDominated(text, gram, prev); got != want {
				t.Fatalf("fallback Dominated(%q, %q) = %v, want %v", gram, prev, got, want)
			}
		}
	}
}

var proteinLetters = []byte("ACDEFGHIKLMNPQRSTVWY")

// randText draws n letters uniformly from letters.
func randText(letters []byte, n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		out[i] = letters[rng.Intn(len(letters))]
	}
	return out
}

// gramSpace returns σ^q, capped once it passes 1<<40.
func gramSpace(sigma, q int) int {
	space := 1
	for range q {
		if space *= sigma; space > 1<<40 {
			break
		}
	}
	return space
}

// TestDominatedDifferential holds both layouts to the definitional
// oracle for q = 1…8: DNA (σ = 4) stays in the flat table throughout;
// DNA with a separator letter (σ = 5) moves to the map at q = 7,
// protein (σ = 20) at q = 4 and the full byte alphabet (σ = 256) at
// q = 3. A text with bytes outside the alphabet checks that grams
// across them are never indexed.
func TestDominatedDifferential(t *testing.T) {
	bytesAll := make([]byte, 256)
	for i := range bytesAll {
		bytesAll[i] = byte(i)
	}
	cases := []struct {
		name          string
		letters, text []byte
		prevs         []byte // the predecessors probed; nil means letters
	}{
		{"dna", dnaLetters, randText(dnaLetters, 600, 1), nil},
		{"dna#", []byte("#ACGT"), randText([]byte("ACGTACGTACGT#"), 600, 2), nil},
		{"dna-outside", dnaLetters, randText([]byte("ACGTACGTACGT#"), 600, 3), nil},
		{"protein", proteinLetters, randText(proteinLetters, 600, 4), nil},
		// A few letters only, so that byte-alphabet grams repeat.
		{"bytes", bytesAll, randText([]byte{0, 1, 255, 'A'}, 600, 5), []byte{0, 1, 255, 'A', 'C'}},
	}
	rng := rand.New(rand.NewSource(61))
	for _, tc := range cases {
		// Periodic stretches make long grams recur, with one or many
		// predecessors.
		text := append(append([]byte(nil), tc.text...), tc.text[:40]...)
		text = append(text, tc.text[:40]...)
		prevs := tc.prevs
		if prevs == nil {
			prevs = tc.letters
		}
		for q := 1; q <= 8; q++ {
			idx, err := Build(text, q, tc.letters)
			if err != nil {
				t.Fatal(err)
			}
			if wantMap := gramSpace(len(tc.letters), q) > max(flatLimit, 4*len(text)); wantMap != (idx.byGram != nil) {
				t.Fatalf("%s q=%d: map layout = %v, want %v", tc.name, q, idx.byGram != nil, wantMap)
			}
			probe := func(gram []byte) {
				indexed := !slices.ContainsFunc(gram, func(b byte) bool { return !slices.Contains(tc.letters, b) })
				for _, prev := range prevs {
					if got, want := idx.Dominated(gram, prev), indexed && bruteDominated(text, gram, prev); got != want {
						t.Fatalf("%s q=%d: Dominated(%q, %q) = %v, want %v", tc.name, q, gram, prev, got, want)
					}
				}
			}
			for i := 0; i+q <= len(text); i++ {
				probe(text[i : i+q])
			}
			for range 50 {
				probe(randText(prevs, q, rng.Int63()))
			}
		}
	}
}

func TestQAccessor(t *testing.T) {
	idx, _ := Build([]byte("ACGTACGT"), 4, dnaLetters)
	if idx.Q() != 4 {
		t.Errorf("Q = %d", idx.Q())
	}
}

// BenchmarkDominationBuild times the one-pass build over 1 Mb texts,
// DNA and protein at q = 4; at this length both take the flat table.
func BenchmarkDominationBuild(b *testing.B) {
	for _, tc := range []struct {
		name    string
		letters []byte
	}{{"dna-q4", dnaLetters}, {"protein-q4", proteinLetters}} {
		text := randText(tc.letters, 1<<20, 12)
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for range b.N {
				if _, err := Build(text, 4, tc.letters); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
