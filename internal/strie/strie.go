// Package strie provides the suffix-trie view of a text that the
// alignment engines traverse (§2.3 and §5 of the paper). The trie is
// never materialised: a node is a suffix-array range of the FM-index
// built over the *reversed* text, so that descending an edge labelled c
// (appending c to the substring read so far) is one backward-search
// step, exactly the simulation §5 describes.
//
// A literal pointer-based suffix trie (Ref) is also provided for small
// texts; the tests cross-check the emulation against it.
package strie

import (
	"repro/internal/bwt"
)

// Trie is the emulated suffix trie of a text.
type Trie struct {
	text []byte       // the original (forward) text
	fm   *bwt.FMIndex // FM-index of the reversed text
}

// Node identifies a trie node: the set of occurrences of the substring
// spelled by the path from the root, as a half-open suffix-array row
// range of the reversed-text index. Depth is the substring length.
type Node struct {
	Lo, Hi int
	Depth  int
}

// New builds the emulated suffix trie of text.
func New(text []byte) *Trie {
	rev := make([]byte, len(text))
	for i, c := range text {
		rev[len(text)-1-i] = c
	}
	return &Trie{text: text, fm: bwt.New(rev)}
}

// NewFromIndex wraps an existing reversed-text FM-index. revFM must be
// the index of the reversal of text.
func NewFromIndex(text []byte, revFM *bwt.FMIndex) *Trie {
	return &Trie{text: text, fm: revFM}
}

// Text returns the forward text.
func (t *Trie) Text() []byte { return t.text }

// Index returns the underlying reversed-text FM-index.
func (t *Trie) Index() *bwt.FMIndex { return t.fm }

// Root returns the root node (the empty substring, all positions).
func (t *Trie) Root() Node {
	lo, hi := t.fm.InitRange()
	return Node{Lo: lo, Hi: hi, Depth: 0}
}

// Child descends the edge labelled c from node u. ok is false when the
// edge does not exist (the extended substring does not occur in the
// text).
func (t *Trie) Child(u Node, c byte) (Node, bool) {
	lo, hi := t.fm.Extend(u.Lo, u.Hi, c)
	if lo >= hi {
		return Node{}, false
	}
	return Node{Lo: lo, Hi: hi, Depth: u.Depth + 1}, true
}

// Children fills nodes with every existing child of u: nodes[k] is
// the child along the letter with dense code k, with Lo == Hi marking
// an absent edge. nodes must have length Index().Sigma(). One call
// costs ~one fused checkpoint scan total (bwt.FMIndex.ExtendAll
// answers both boundary rows of the range in one block visit when
// they are close, which they are at every node below the first few
// levels), versus two scans per letter for individual Child calls —
// the difference dominates trie-walking profiles.
func (t *Trie) Children(u Node, nodes []Node, los, his []int32) {
	t.fm.ExtendAll(u.Lo, u.Hi, los, his)
	for k := range nodes {
		nodes[k] = Node{Lo: int(los[k]), Hi: int(his[k]), Depth: u.Depth + 1}
	}
}

// SingleChild returns the unique child of a width-one node u together
// with the dense code of its edge letter, in one rank operation. ok is
// false when u has no child (its occurrence reaches the text end). u
// must satisfy Hi-Lo == 1.
func (t *Trie) SingleChild(u Node) (Node, int, bool) {
	code, next, ok := t.fm.LFStep(u.Lo)
	if !ok {
		return Node{}, 0, false
	}
	return Node{Lo: next, Hi: next + 1, Depth: u.Depth + 1}, code, true
}

// PathOccurrence returns the 0-based forward-text starting position of
// a width-one node's single occurrence, without the slice bookkeeping
// of Occurrences. u must satisfy Hi-Lo == 1.
func (t *Trie) PathOccurrence(u Node) int {
	return len(t.text) - t.fm.Position(u.Lo) - u.Depth
}

// Walk descends the path spelled by s from the root. ok is false when
// s does not occur in the text.
func (t *Trie) Walk(s []byte) (Node, bool) {
	u := t.Root()
	for _, c := range s {
		var ok bool
		u, ok = t.Child(u, c)
		if !ok {
			return Node{}, false
		}
	}
	return u, true
}

// Count returns the number of occurrences in the text of the substring
// represented by u.
func (t *Trie) Count(u Node) int { return u.Hi - u.Lo }

// Occurrences returns the 0-based starting positions in the forward
// text of the substring represented by u. Positions are not sorted.
func (t *Trie) Occurrences(u Node) []int {
	return t.OccurrencesAppend(u, make([]int, 0, u.Hi-u.Lo))
}

// OccurrencesAppend is Occurrences appending into buf, for callers that
// reuse a positions buffer (the alignment engines locate once per
// emitting trie node and must not allocate per node).
func (t *Trie) OccurrencesAppend(u Node, buf []int) []int {
	// A row holds a position p in the reversed text where the reversed
	// substring starts; in forward coordinates the substring starts at
	// n - p - depth.
	n := len(t.text)
	start := len(buf)
	buf = t.fm.LocateAppend(u.Lo, u.Hi, buf)
	for i := start; i < len(buf); i++ {
		buf[i] = n - buf[i] - u.Depth
	}
	return buf
}

// Letters returns the distinct bytes of the text in sorted order (the
// possible edge labels).
func (t *Trie) Letters() []byte { return t.fm.Letters() }
