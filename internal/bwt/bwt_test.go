package bwt

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// bruteCount is the oracle for Count.
func bruteCount(text, pat []byte) int {
	if len(pat) == 0 {
		return len(text) + 1
	}
	n := 0
	for i := 0; i+len(pat) <= len(text); i++ {
		if bytes.Equal(text[i:i+len(pat)], pat) {
			n++
		}
	}
	return n
}

// brutePositions is the oracle for Locate.
func brutePositions(text, pat []byte) []int {
	var out []int
	for i := 0; i+len(pat) <= len(text); i++ {
		if bytes.Equal(text[i:i+len(pat)], pat) {
			out = append(out, i)
		}
	}
	return out
}

func TestFMIndexPaperExample(t *testing.T) {
	// §2.3: for T = GCTAGC, the SA range of substring GC is [4, 5]
	// (1-based, inclusive) and its starting positions are 5 and 1
	// (1-based), i.e. 4 and 0 in 0-based coordinates.
	fm := New([]byte("GCTAGC"))
	lo, hi := fm.Search([]byte("GC"))
	if lo != 4 || hi != 6 {
		t.Errorf("Search(GC) = [%d, %d), want [4, 6)", lo, hi)
	}
	pos := fm.Locate(lo, hi)
	sort.Ints(pos)
	if len(pos) != 2 || pos[0] != 0 || pos[1] != 4 {
		t.Errorf("Locate(GC) = %v, want [0 4]", pos)
	}
}

func TestFMIndexCountMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	letters := []byte("ACGT")
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		text := make([]byte, n)
		for i := range text {
			text[i] = letters[rng.Intn(4)]
		}
		fm := NewWithOptions(text, Options{SampleRate: 4, CheckpointEvery: 16})
		for plen := 1; plen <= 8; plen++ {
			for k := 0; k < 10; k++ {
				pat := make([]byte, plen)
				for i := range pat {
					pat[i] = letters[rng.Intn(4)]
				}
				if got, want := fm.Count(pat), bruteCount(text, pat); got != want {
					t.Fatalf("Count(%q) in %q = %d, want %d", pat, text, got, want)
				}
			}
		}
	}
}

func TestFMIndexLocateMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	letters := []byte("AC") // tiny alphabet = many occurrences
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(300)
		text := make([]byte, n)
		for i := range text {
			text[i] = letters[rng.Intn(2)]
		}
		fm := NewWithOptions(text, Options{SampleRate: 7, CheckpointEvery: 32})
		for plen := 1; plen <= 6; plen++ {
			pat := make([]byte, plen)
			for i := range pat {
				pat[i] = letters[rng.Intn(2)]
			}
			lo, hi := fm.Search(pat)
			got := fm.Locate(lo, hi)
			sort.Ints(got)
			want := brutePositions(text, pat)
			if len(got) != len(want) {
				t.Fatalf("Locate(%q) in %q: got %v, want %v", pat, text, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Locate(%q) in %q: got %v, want %v", pat, text, got, want)
				}
			}
		}
	}
}

func TestFMIndexExtendStepwiseEqualsSearch(t *testing.T) {
	// Backward search one character at a time (how the engines walk
	// the emulated suffix trie) must agree with whole-pattern Search.
	text := []byte("GCTAGCTAGCATCGATCGGGCTA")
	fm := New(text)
	pat := []byte("GCTA")
	lo, hi := fm.InitRange()
	for i := len(pat) - 1; i >= 0; i-- {
		lo, hi = fm.Extend(lo, hi, pat[i])
	}
	slo, shi := fm.Search(pat)
	if lo != slo || hi != shi {
		t.Errorf("stepwise [%d,%d) != Search [%d,%d)", lo, hi, slo, shi)
	}
}

func TestFMIndexAbsentByte(t *testing.T) {
	fm := New([]byte("ACGTACGT"))
	if fm.Count([]byte("N")) != 0 {
		t.Error("Count of absent byte should be 0")
	}
	if fm.CodeOf('N') != -1 {
		t.Error("CodeOf absent byte should be -1")
	}
	ilo, ihi := fm.InitRange()
	if lo, hi := fm.Extend(ilo, ihi, 'N'); lo != hi {
		t.Errorf("Extend with absent byte gave non-empty range [%d, %d)", lo, hi)
	}
}

func TestFMIndexEmptyAndTiny(t *testing.T) {
	fm := New(nil)
	if fm.Len() != 0 || fm.Rows() != 1 {
		t.Errorf("empty index: Len=%d Rows=%d", fm.Len(), fm.Rows())
	}
	if fm.Count([]byte("A")) != 0 {
		t.Error("empty index should contain nothing")
	}

	fm = New([]byte("A"))
	if fm.Count([]byte("A")) != 1 {
		t.Error("single-char index lookup failed")
	}
	if got := fm.Locate(fm.Search([]byte("A"))); len(got) != 1 || got[0] != 0 {
		t.Errorf("Locate in single-char text = %v", got)
	}
}

func TestFMIndexPositionOfEveryRow(t *testing.T) {
	text := []byte("GCTAGCTAGCATCG")
	fm := NewWithOptions(text, Options{SampleRate: 5})
	// Collect positions of all rows; they must be a permutation of 0..n.
	seen := make([]bool, fm.Rows())
	for row := 0; row < fm.Rows(); row++ {
		p := fm.Position(row)
		if p < 0 || p > fm.Len() || seen[p] {
			t.Fatalf("row %d: bad or duplicate position %d", row, p)
		}
		seen[p] = true
	}
}

func TestFMIndexProteinAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	letters := []byte("ACDEFGHIKLMNPQRSTVWY")
	text := make([]byte, 2000)
	for i := range text {
		text[i] = letters[rng.Intn(len(letters))]
	}
	fm := New(text)
	if fm.Sigma() != 20 {
		t.Fatalf("Sigma = %d, want 20", fm.Sigma())
	}
	for trial := 0; trial < 50; trial++ {
		start := rng.Intn(len(text) - 5)
		pat := text[start : start+5]
		if got, want := fm.Count(pat), bruteCount(text, pat); got != want {
			t.Errorf("Count(%q) = %d, want %d", pat, got, want)
		}
	}
}

// TestFMIndexSizeAccounting holds SizeBytes and PackedSizeBytes to the
// layout: a packed block is 40 bytes (one word of four 16-bit counts,
// 32 bytes of 2-bit symbols) and a packed superblock 16 (four uint32
// counts); a plane block at σ = 20 is 120 bytes (five count words, 80
// bytes of planes) and a plane superblock 80. Separator rows take 4
// bytes each, the C array 4 per code plus one; the samples and their
// bitmap are counted as held. PackedSizeBytes counts the BWT at
// ⌈log2 σ⌉ bits per row and the rest, the directory included, as held.
func TestFMIndexSizeAccounting(t *testing.T) {
	for _, tc := range []struct {
		name                              string
		text                              []byte
		blockBytes, dataBytes, superBytes int
		bitsPerRow                        int
	}{
		{"dna", bytes.Repeat([]byte("ACGT"), 4096), 40, 32, 16, 2},
		{"dna-three-superblocks", randomText([]byte("ACGT"), 70000, 3), 40, 32, 16, 2},
		{"dna-store", storeText(40, 100, 900, 4), 40, 32, 16, 3},
		{"protein", randomText([]byte("ACDEFGHIKLMNPQRSTVWY"), 40000, 5), 120, 80, 80, 5},
	} {
		fm := New(tc.text)
		rows := fm.Rows()
		blocks, supers := rows/128+1, rows/(1<<15)+1
		seps := 0
		if fm.pk != nil {
			seps = len(fm.pk.seps)
		}
		rest := 4*seps + 4*(fm.Sigma()+1) + 8*len(fm.samples) + fm.sampleMark.SizeBytes()
		dir := blocks*(tc.blockBytes-tc.dataBytes) + supers*tc.superBytes
		if got, want := fm.SizeBytes(), blocks*tc.dataBytes+dir+rest; got != want {
			t.Errorf("%s: SizeBytes %d, the layout says %d", tc.name, got, want)
		}
		if got, want := fm.PackedSizeBytes(), (rows*tc.bitsPerRow+7)/8+dir+rest; got != want {
			t.Errorf("%s: PackedSizeBytes %d, the layout says %d", tc.name, got, want)
		}
		if tc.bitsPerRow == 2 && fm.PackedSizeBytes() >= fm.SizeBytes() {
			t.Errorf("%s: packed size %d should be below raw size %d for DNA",
				tc.name, fm.PackedSizeBytes(), fm.SizeBytes())
		}
		if !strings.Contains(fm.String(), "FMIndex") {
			t.Errorf("String() = %q", fm.String())
		}
	}
}

func TestRankBitVector(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 10000
	v := newRankBitVector(n)
	ref := make([]bool, n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			v.Set(i)
			ref[i] = true
		}
	}
	v.Finish()
	rank := 0
	for i := 0; i < n; i++ {
		if got := v.Rank(i); got != rank {
			t.Fatalf("Rank(%d) = %d, want %d", i, got, rank)
		}
		if v.Get(i) != ref[i] {
			t.Fatalf("Get(%d) = %v, want %v", i, v.Get(i), ref[i])
		}
		if ref[i] {
			rank++
		}
	}
}

func BenchmarkFMIndexBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	letters := []byte("ACGT")
	text := make([]byte, 1<<20)
	for i := range text {
		text[i] = letters[rng.Intn(4)]
	}
	b.ResetTimer()
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		New(text)
	}
}

func BenchmarkFMIndexSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	letters := []byte("ACGT")
	text := make([]byte, 1<<20)
	for i := range text {
		text[i] = letters[rng.Intn(4)]
	}
	fm := New(text)
	pat := text[1000:1012]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fm.Search(pat)
	}
}

// TestLocateAppendWideRanges drives the batched (distance-to-sample
// grouped) locate across ranges much wider than its chunk size,
// including the all-rows range, cross-checking every position against
// Position — which walks each row individually.
func TestLocateAppendWideRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	letters := []byte("ACGT")
	for _, n := range []int{1, 63, 64, 65, 1000, 4096} {
		text := make([]byte, n)
		for i := range text {
			text[i] = letters[rng.Intn(4)]
		}
		fm := NewWithOptions(text, Options{SampleRate: 5})
		var buf []int
		for _, span := range [][2]int{{0, fm.Rows()}, {1, min(fm.Rows(), 200)}, {fm.Rows() / 2, fm.Rows()}} {
			lo, hi := span[0], span[1]
			if lo >= hi {
				continue
			}
			buf = fm.LocateAppend(lo, hi, buf[:0])
			if len(buf) != hi-lo {
				t.Fatalf("n=%d [%d,%d): %d positions, want %d", n, lo, hi, len(buf), hi-lo)
			}
			for k, p := range buf {
				if want := fm.Position(lo + k); p != want {
					t.Fatalf("n=%d row %d: batched locate %d, Position %d", n, lo+k, p, want)
				}
			}
		}
	}
}
