package strie

import (
	"math/rand"
	"sort"
	"testing"
)

func randDNA(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	letters := []byte("ACGT")
	out := make([]byte, n)
	for i := range out {
		out[i] = letters[rng.Intn(4)]
	}
	return out
}

func TestWalkAndOccurrencesMatchRef(t *testing.T) {
	text := randDNA(300, 30)
	tr := New(text)
	ref := NewRef(text)
	rng := rand.New(rand.NewSource(31))

	for trial := 0; trial < 300; trial++ {
		// Half the probes are real substrings, half are random strings.
		var s []byte
		if trial%2 == 0 {
			start := rng.Intn(len(text))
			l := 1 + rng.Intn(min(10, len(text)-start))
			s = text[start : start+l]
		} else {
			s = randDNA(1+rng.Intn(8), int64(trial))
		}
		want := ref.WalkRef(s)
		node, ok := tr.Walk(s)
		if (want == nil) != !ok {
			t.Fatalf("Walk(%q): emulated ok=%v, ref found=%v", s, ok, want != nil)
		}
		if !ok {
			continue
		}
		got := tr.Occurrences(node)
		sort.Ints(got)
		wantSorted := append([]int(nil), want...)
		sort.Ints(wantSorted)
		if len(got) != len(wantSorted) {
			t.Fatalf("Walk(%q): got %v, want %v", s, got, wantSorted)
		}
		for i := range got {
			if got[i] != wantSorted[i] {
				t.Fatalf("Walk(%q): got %v, want %v", s, got, wantSorted)
			}
		}
		if tr.Count(node) != len(want) {
			t.Fatalf("Count(%q) = %d, want %d", s, tr.Count(node), len(want))
		}
	}
}

func TestChildEnumerationMatchesRef(t *testing.T) {
	text := randDNA(200, 32)
	tr := New(text)
	ref := NewRef(text)
	rng := rand.New(rand.NewSource(33))

	for trial := 0; trial < 100; trial++ {
		start := rng.Intn(len(text))
		l := rng.Intn(min(8, len(text)-start))
		s := text[start : start+l]
		node, ok := tr.Walk(s)
		if !ok {
			t.Fatalf("substring %q must be walkable", s)
		}
		wantLabels := ref.EdgeLabels(s)
		var gotLabels []byte
		for _, c := range tr.Letters() {
			if _, ok := tr.Child(node, c); ok {
				gotLabels = append(gotLabels, c)
			}
		}
		if string(gotLabels) != string(wantLabels) {
			t.Fatalf("children of %q: got %q, want %q", s, gotLabels, wantLabels)
		}
	}
}

func TestRootCoversWholeText(t *testing.T) {
	text := randDNA(50, 35)
	tr := New(text)
	root := tr.Root()
	if tr.Count(root) != len(text)+1 { // +1 for the sentinel suffix
		t.Errorf("root count = %d, want %d", tr.Count(root), len(text)+1)
	}
	if root.Depth != 0 {
		t.Errorf("root depth = %d", root.Depth)
	}
}

func TestDeepWalkWholeText(t *testing.T) {
	text := randDNA(80, 36)
	tr := New(text)
	node, ok := tr.Walk(text)
	if !ok {
		t.Fatal("the whole text must be a root-to-leaf path")
	}
	occ := tr.Occurrences(node)
	if len(occ) != 1 || occ[0] != 0 {
		t.Errorf("whole-text occurrence = %v, want [0]", occ)
	}
}

func TestAbsentEdge(t *testing.T) {
	tr := New([]byte("ACGTACGT"))
	if _, ok := tr.Walk([]byte("AA")); ok {
		t.Error("AA does not occur in ACGTACGT")
	}
	if _, ok := tr.Child(tr.Root(), 'N'); ok {
		t.Error("N is not in the text alphabet")
	}
}
