package sais

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// naive builds a suffix array by sorting, the O(n^2 log n) oracle.
func naive(text []byte) []int32 {
	sa := make([]int32, len(text))
	for i := range sa {
		sa[i] = int32(i)
	}
	sort.Slice(sa, func(a, b int) bool {
		return bytes.Compare(text[sa[a]:], text[sa[b]:]) < 0
	})
	return sa
}

func equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBuildKnown(t *testing.T) {
	cases := []struct {
		text string
		want []int32
	}{
		{"", []int32{}},
		{"A", []int32{0}},
		{"BA", []int32{1, 0}},
		{"AB", []int32{0, 1}},
		{"AAAA", []int32{3, 2, 1, 0}},
		{"banana", []int32{5, 3, 1, 0, 4, 2}},
		{"mississippi", []int32{10, 7, 4, 1, 0, 9, 8, 6, 3, 5, 2}},
		{"GCTAGC", []int32{3, 5, 1, 4, 0, 2}}, // the paper's running example text
	}
	for _, tc := range cases {
		got := Build([]byte(tc.text))
		if !equal(got, tc.want) {
			t.Errorf("Build(%q) = %v, want %v", tc.text, got, tc.want)
		}
	}
}

func TestBuildMatchesNaiveDNA(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	letters := []byte("ACGT")
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		text := make([]byte, n)
		for i := range text {
			text[i] = letters[rng.Intn(4)]
		}
		got, want := Build(text), naive(text)
		if !equal(got, want) {
			t.Fatalf("trial %d text %q:\n got %v\nwant %v", trial, text, got, want)
		}
	}
}

func TestBuildMatchesNaiveSmallAlphabet(t *testing.T) {
	// Tiny alphabets maximise LMS-substring collisions, stressing the
	// recursive renaming step.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		text := make([]byte, n)
		for i := range text {
			text[i] = byte('a' + rng.Intn(2))
		}
		got, want := Build(text), naive(text)
		if !equal(got, want) {
			t.Fatalf("trial %d text %q:\n got %v\nwant %v", trial, text, got, want)
		}
	}
}

func TestBuildMatchesNaiveFullByteRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(150)
		text := make([]byte, n)
		rng.Read(text)
		got, want := Build(text), naive(text)
		if !equal(got, want) {
			t.Fatalf("trial %d text %v:\n got %v\nwant %v", trial, text, got, want)
		}
	}
}

func TestBuildRuns(t *testing.T) {
	// Long runs and periodic strings are classic SA-IS edge cases.
	for _, text := range []string{
		"aaaaaaaaaaaaaaaaaaaab",
		"baaaaaaaaaaaaaaaaaaaa",
		"abababababababababab",
		"abaabaaabaaaabaaaaab",
		"zyxwvutsrqponmlkjihgfedcba",
		"abcabcabcabcabcabc",
	} {
		got, want := Build([]byte(text)), naive([]byte(text))
		if !equal(got, want) {
			t.Errorf("Build(%q) = %v, want %v", text, got, want)
		}
	}
}

func TestBuildFullArrayRecursion(t *testing.T) {
	// 255 between random low bytes makes every other position an LMS
	// start and almost every LMS substring distinct: the reduced string
	// fills sa, leaving no room for the recursion's buckets, so they
	// must be allocated.
	rng := rand.New(rand.NewSource(12))
	text := make([]byte, 20000)
	for i := range text {
		text[i] = 255
		if i%2 == 1 {
			text[i] = byte(rng.Intn(255))
		}
	}
	if got, want := Build(text), naive(text); !equal(got, want) {
		t.Fatal("suffix array differs from the naive sort")
	}
}

func TestBuildQuick(t *testing.T) {
	f := func(text []byte) bool {
		if len(text) > 500 {
			text = text[:500]
		}
		return equal(Build(text), naive(text))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestBuildIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	text := make([]byte, 10000)
	letters := []byte("ACGT")
	for i := range text {
		text[i] = letters[rng.Intn(4)]
	}
	sa := Build(text)
	seen := make([]bool, len(text))
	for _, v := range sa {
		if v < 0 || int(v) >= len(text) || seen[v] {
			t.Fatalf("sa is not a permutation: value %d", v)
		}
		seen[v] = true
	}
	// Spot-check sortedness with direct comparisons.
	for i := 0; i+1 < len(sa); i += 97 {
		if bytes.Compare(text[sa[i]:], text[sa[i+1]:]) >= 0 {
			t.Fatalf("sa not sorted at %d", i)
		}
	}
}

// FuzzBuild holds Build to the naive suffix sort under the native
// fuzzer. The seed corpus in testdata/fuzz/FuzzBuild pins the classic
// SA-IS edges: an all-equal run, periodic ACAC… texts, the extreme
// bytes 0 and 255, and n = 1–3.
func FuzzBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, text []byte) {
		if len(text) > 4096 {
			text = text[:4096]
		}
		if got, want := Build(text), naive(text); !equal(got, want) {
			t.Fatalf("Build(%q):\n got %v\nwant %v", text, got, want)
		}
	})
}

func BenchmarkBuild1M(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	text := make([]byte, 1<<20)
	letters := []byte("ACGT")
	for i := range text {
		text[i] = letters[rng.Intn(4)]
	}
	b.ResetTimer()
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		Build(text)
	}
}
