package qgram

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

var dnaLetters = []byte("ACGT")

// bruteGrams builds the reference inverted lists.
func bruteGrams(query []byte, q int) map[string][]int32 {
	out := make(map[string][]int32)
	for i := 0; i+q <= len(query); i++ {
		g := string(query[i : i+q])
		out[g] = append(out[g], int32(i))
	}
	return out
}

func TestIndexMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		query := make([]byte, n)
		for i := range query {
			query[i] = dnaLetters[rng.Intn(4)]
		}
		q := 1 + rng.Intn(6)
		idx, err := New(query, q, dnaLetters)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteGrams(query, q)
		if idx.Distinct() != len(want) {
			t.Fatalf("Distinct = %d, want %d", idx.Distinct(), len(want))
		}
		for g, pos := range want {
			got := idx.Positions([]byte(g))
			if len(got) != len(pos) {
				t.Fatalf("Positions(%q) = %v, want %v", g, got, pos)
			}
			for i := range pos {
				if got[i] != pos[i] {
					t.Fatalf("Positions(%q) = %v, want %v", g, got, pos)
				}
			}
		}
	}
}

func TestIndexAbsentAndWrongLength(t *testing.T) {
	idx, err := New([]byte("ACGTACGT"), 4, dnaLetters)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Positions([]byte("TTTT")) != nil {
		t.Error("absent gram returned positions")
	}
	if idx.Positions([]byte("ACG")) != nil {
		t.Error("wrong-length gram returned positions")
	}
	if idx.Positions([]byte("ACGN")) != nil {
		t.Error("foreign-byte gram returned positions")
	}
}

func TestIndexSkipsSeparators(t *testing.T) {
	idx, err := New([]byte("ACG#TACG"), 3, dnaLetters)
	if err != nil {
		t.Fatal(err)
	}
	// Grams overlapping '#' must not be indexed.
	for _, g := range []string{"CG#", "G#T", "#TA"} {
		if idx.Positions([]byte(g)) != nil {
			t.Errorf("separator gram %q indexed", g)
		}
	}
	if got := idx.Positions([]byte("ACG")); len(got) != 2 {
		t.Errorf("Positions(ACG) = %v, want two entries", got)
	}
}

func TestIndexRejectsBadQ(t *testing.T) {
	if _, err := New([]byte("ACGT"), 0, dnaLetters); err == nil {
		t.Error("q=0 accepted")
	}
}

func TestGramsEnumeration(t *testing.T) {
	query := []byte("ACGTACGA")
	idx, err := New(query, 3, dnaLetters)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteGrams(query, 3)
	var seen []string
	idx.Grams(func(gram []byte, pos []int32) {
		seen = append(seen, string(gram))
		ref := want[string(gram)]
		if len(pos) != len(ref) {
			t.Errorf("gram %q positions %v, want %v", gram, pos, ref)
		}
	})
	sort.Strings(seen)
	var wantKeys []string
	for k := range want {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	if len(seen) != len(wantKeys) {
		t.Fatalf("enumerated %v, want %v", seen, wantKeys)
	}
	for i := range seen {
		if seen[i] != wantKeys[i] {
			t.Fatalf("enumerated %v, want %v", seen, wantKeys)
		}
	}
	// Sorted enumeration yields lexicographic order.
	var sortedSeen []string
	idx.GramsSorted(func(gram []byte, _ []int32) {
		sortedSeen = append(sortedSeen, string(gram))
	})
	if !sort.StringsAreSorted(sortedSeen) {
		t.Errorf("GramsSorted not sorted: %v", sortedSeen)
	}
}

func TestPackerRoundTripAndNext(t *testing.T) {
	p := NewPacker(dnaLetters, 4)
	if p == nil {
		t.Fatal("packer unavailable for DNA q=4")
	}
	rng := rand.New(rand.NewSource(51))
	prevGram := []byte("ACGT")
	key, ok := p.Pack(prevGram)
	if !ok {
		t.Fatal("pack failed")
	}
	for step := 0; step < 100; step++ {
		c := dnaLetters[rng.Intn(4)]
		nextGram := append(append([]byte(nil), prevGram[1:]...), c)
		nk, ok := p.Next(key, c)
		if !ok {
			t.Fatal("Next failed")
		}
		direct, _ := p.Pack(nextGram)
		if nk != direct {
			t.Fatalf("sliding key %d != direct key %d for %q", nk, direct, nextGram)
		}
		key, prevGram = nk, nextGram
	}
	if _, ok := p.Pack([]byte("ACGN")); ok {
		t.Error("packed a foreign byte")
	}
	if _, ok := p.Next(key, 'N'); ok {
		t.Error("Next accepted a foreign byte")
	}
}

func TestPackerUnpackableFallsBack(t *testing.T) {
	// 62-byte alphabet with q=11 exceeds 62 bits: packer must be nil
	// and the index must fall back to string keys, still correct.
	letters := make([]byte, 62)
	for i := range letters {
		letters[i] = byte('!' + i)
	}
	if NewPacker(letters, 11) != nil {
		t.Fatal("packer should refuse 11 grams over 62 letters")
	}
	rng := rand.New(rand.NewSource(52))
	query := make([]byte, 500)
	for i := range query {
		query[i] = letters[rng.Intn(len(letters))]
	}
	idx, err := New(query, 11, letters)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteGrams(query, 11)
	if idx.Distinct() != len(want) {
		t.Fatalf("Distinct = %d, want %d", idx.Distinct(), len(want))
	}
	for g, pos := range want {
		got := idx.Positions([]byte(g))
		if len(got) != len(pos) {
			t.Fatalf("fallback Positions(%q) wrong", g)
		}
	}
	if idx.SizeBytes() <= 0 {
		t.Error("SizeBytes must be positive")
	}
}

func TestProteinPacking(t *testing.T) {
	letters := []byte("ACDEFGHIKLMNPQRSTVWY")
	p := NewPacker(letters, 5) // 5 bits × 5 = 25 bits, packable
	if p == nil {
		t.Fatal("protein q=5 should pack")
	}
	a, _ := p.Pack([]byte("ACDEF"))
	b, _ := p.Pack([]byte("ACDEG"))
	if a == b {
		t.Error("distinct grams packed to the same key")
	}
}

func TestIndexQueryShorterThanQ(t *testing.T) {
	idx, err := New([]byte("AC"), 4, dnaLetters)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Distinct() != 0 {
		t.Error("short query should index nothing")
	}
}

func TestPositionsSharedSliceContract(t *testing.T) {
	query := bytes.Repeat([]byte("ACGT"), 10)
	idx, _ := New(query, 4, dnaLetters)
	p1 := idx.Positions([]byte("ACGT"))
	p2 := idx.Positions([]byte("ACGT"))
	if len(p1) != len(p2) || len(p1) != 10 {
		t.Fatalf("ACGT occurs 10 times, got %d/%d", len(p1), len(p2))
	}
}

// naiveLCP is the reference longest-common-prefix length.
func naiveLCP(a, b string) int {
	l := 0
	for l < len(a) && l < len(b) && a[l] == b[l] {
		l++
	}
	return l
}

// checkSortedLCP runs GramsSortedLCP and validates order, LCPs and
// position lists against the brute-force index.
func checkSortedLCP(t *testing.T, query []byte, q int, letters []byte) {
	t.Helper()
	idx, err := New(query, q, letters)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteGrams(query, q)
	prev := ""
	count := 0
	idx.GramsSortedLCP(func(gram []byte, lcp int, pos []int32) {
		g := string(gram)
		if count > 0 && g <= prev {
			t.Fatalf("GramsSortedLCP out of order: %q after %q", g, prev)
		}
		wantLCP := 0
		if count > 0 {
			wantLCP = naiveLCP(prev, g)
		}
		if lcp != wantLCP {
			t.Fatalf("LCP(%q, %q) = %d, want %d", prev, g, lcp, wantLCP)
		}
		ref := want[g]
		if len(pos) != len(ref) {
			t.Fatalf("gram %q positions %v, want %v", g, pos, ref)
		}
		prev = g
		count++
	})
	// Grams containing letters outside the alphabet are excluded from
	// the index, so count every brute gram that is alphabet-pure.
	pure := 0
	for g := range want {
		ok := true
		for i := 0; i < len(g); i++ {
			if bytes.IndexByte(letters, g[i]) < 0 {
				ok = false
				break
			}
		}
		if ok {
			pure++
		}
	}
	if count != pure {
		t.Fatalf("enumerated %d grams, want %d", count, pure)
	}
}

func TestGramsSortedLCPPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	// Random DNA plus shapes that force every LCP value: homopolymer
	// runs (LCP = q−1) and letter-boundary jumps (LCP = 0).
	queries := [][]byte{
		[]byte("AAAAAAAACCCCCCCCGGGGGGGGTTTTTTTT"),
		[]byte("ACGTACGTACGT"),
	}
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(200)
		query := make([]byte, n)
		for i := range query {
			query[i] = dnaLetters[rng.Intn(4)]
		}
		queries = append(queries, query)
	}
	for _, query := range queries {
		for q := 1; q <= 5; q++ {
			checkSortedLCP(t, query, q, dnaLetters)
		}
	}
}

func TestGramsSortedLCPStringFallback(t *testing.T) {
	// 62 letters × q=11 exceeds 62 bits, forcing the string-keyed
	// fallback path of GramsSortedLCP.
	letters := make([]byte, 62)
	for i := range letters {
		letters[i] = byte('!' + i)
	}
	rng := rand.New(rand.NewSource(54))
	query := make([]byte, 400)
	for i := range query {
		// A small sub-alphabet so grams actually collide and share
		// prefixes.
		query[i] = letters[rng.Intn(4)]
	}
	checkSortedLCP(t, query, 11, letters)
}

// TestRearmMatchesFresh re-arms one Index across a stream of queries
// with varying lengths, gram lengths and alphabets and checks every
// state is indistinguishable from a freshly built index — the
// open-addressing slabs must not leak state between queries.
func TestRearmMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	protein := []byte("ACDEFGHIKLMNPQRSTVWY")
	var idx Index
	for trial := 0; trial < 60; trial++ {
		letters := dnaLetters
		if trial%3 == 2 {
			letters = protein
		}
		n := 1 + rng.Intn(400)
		query := make([]byte, n)
		for i := range query {
			if rng.Intn(20) == 0 {
				query[i] = '#' // separator: grams overlapping it are skipped
			} else {
				query[i] = letters[rng.Intn(len(letters))]
			}
		}
		q := 1 + rng.Intn(6)
		if err := idx.Rearm(query, q, letters); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(query, q, letters)
		if err != nil {
			t.Fatal(err)
		}
		if idx.Distinct() != fresh.Distinct() {
			t.Fatalf("trial %d: Distinct %d after rearm, fresh %d", trial, idx.Distinct(), fresh.Distinct())
		}
		type entry struct {
			gram string
			lcp  int
			pos  string
		}
		collect := func(ix *Index) []entry {
			var out []entry
			ix.GramsSortedLCP(func(gram []byte, lcp int, pos []int32) {
				out = append(out, entry{string(gram), lcp, fmt.Sprint(pos)})
			})
			return out
		}
		got, want := collect(&idx), collect(fresh)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d grams after rearm, fresh %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d gram %d: rearm %+v, fresh %+v", trial, i, got[i], want[i])
			}
		}
		// Spot-check Positions through the probe path too.
		for probe := 0; probe < 5 && n >= q; probe++ {
			i := rng.Intn(n - q + 1)
			gram := query[i : i+q]
			g1, g2 := idx.Positions(gram), fresh.Positions(gram)
			if fmt.Sprint(g1) != fmt.Sprint(g2) {
				t.Fatalf("trial %d: Positions(%q) = %v after rearm, fresh %v", trial, gram, g1, g2)
			}
		}
	}
}

// TestRearmWarmAllocFree pins the point of the open-addressing layout:
// re-arming for a same-shape query (the serving loop's steady state)
// allocates nothing, including the sorted-key enumeration the engines
// run per query.
func TestRearmWarmAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	queries := make([][]byte, 4)
	for qi := range queries {
		queries[qi] = make([]byte, 3000)
		for i := range queries[qi] {
			queries[qi][i] = dnaLetters[rng.Intn(4)]
		}
	}
	var idx Index
	for _, q := range queries { // warm every slab at this shape
		if err := idx.Rearm(q, 11, dnaLetters); err != nil {
			t.Fatal(err)
		}
		idx.GramsSortedLCP(func([]byte, int, []int32) {})
	}
	qi := 0
	allocs := testing.AllocsPerRun(5, func() {
		qi++
		if err := idx.Rearm(queries[qi%len(queries)], 11, dnaLetters); err != nil {
			t.Fatal(err)
		}
		idx.GramsSortedLCP(func([]byte, int, []int32) {})
	})
	if allocs > 0 {
		t.Fatalf("warm Rearm+GramsSortedLCP allocated %.1f objects; must be 0", allocs)
	}
}
