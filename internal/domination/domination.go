// Package domination implements the q-prefix domination index of
// §3.2.2: the offline structure that lets ALAE prune whole fork areas.
//
// Definition 1 specialises cleanly: the fork for the q-gram
// X = P[j..j+q−1] at query column j is dominated by
// X' = P[j−1..j+q−2] exactly when every occurrence of X in the text is
// immediately preceded by the character P[j−1] — then every alignment
// found through the fork at j is found, with a strictly higher score,
// through the fork at j−1 (one more leading match), so the fork at j
// is meaningless (Lemma 1).
//
// The index therefore stores, for every distinct q-gram of the text,
// the one letter that precedes all its occurrences, or that no single
// letter does; it is built in one O(n) scan, matching the paper's
// "constructing dominations offline ... in O(n) time". A q-gram at
// text position 0 has no predecessor, which automatically prevents it
// from being dominated — the paper's rule that "the q-length substring
// at position 1 could not be dominated".
package domination

import "fmt"

// A gram's state: absent from the text, preceded by more than one
// letter (or by none, or by a byte outside the alphabet), or preceded
// everywhere by the letter with code c, stored as c+firstLetter.
const (
	absent      uint16 = 0
	mixed       uint16 = 1
	firstLetter uint16 = 2
)

// flatLimit is the largest gram space always kept as a flat table (2
// bytes a gram: 128 KiB). A larger space is flat only while it has at
// most 4 grams a text letter (8 bytes a letter, against a map's ~40
// bytes a distinct gram); past that the text is too short to fill it,
// and only the grams that occur are kept.
const flatLimit = 1 << 16

// Index is the domination index of a text for a fixed q.
type Index struct {
	q     int
	sigma int
	code  [256]int16 // letter code of each byte, -1 outside the alphabet

	// The gram states, in one of two forms: flat, indexed by the gram's
	// letter codes read as a base-σ number, when the σ^q grams fit (see
	// flatLimit); otherwise byGram, keyed by the grams that occur.
	flat   []uint16
	byGram map[string]uint16
}

// Build scans text once and constructs the index. letters must list
// the alphabet bytes of interest; grams containing other bytes (e.g.
// collection separators) are not indexed and can never dominate or be
// dominated.
func Build(text []byte, q int, letters []byte) (*Index, error) {
	if q <= 0 {
		return nil, fmt.Errorf("domination: q = %d must be positive", q)
	}
	idx := &Index{q: q, sigma: len(letters)}
	for i := range idx.code {
		idx.code[i] = -1
	}
	for i, c := range letters {
		idx.code[c] = int16(i)
	}
	limit := max(flatLimit, 4*len(text))
	space := 1
	for range q {
		if space *= idx.sigma; space > limit {
			break
		}
	}
	if space <= limit {
		idx.flat = make([]uint16, space)
		idx.buildFlat(text)
	} else {
		idx.byGram = make(map[string]uint16)
		idx.buildByGram(text)
	}
	return idx, nil
}

// buildFlat rolls a base-σ key over the text. The predecessor of the
// gram that ends at i is the letter the window drops on its way there;
// a gram right after position 0 or after a byte outside the alphabet
// has none and is mixed from its first occurrence.
func (idx *Index) buildFlat(text []byte) {
	q, sigma := idx.q, idx.sigma
	lead := 1 // σ^(q-1), the weight of a window's first letter
	for range q - 1 {
		lead *= sigma
	}
	key := 0
	valid := 0 // in-alphabet letters ending at i, capped at q
	for i, b := range text {
		c := idx.code[b]
		if c < 0 {
			key, valid = 0, 0
			continue
		}
		pred := mixed
		if valid == q {
			first := idx.code[text[i-q]]
			key -= int(first) * lead
			pred = uint16(first) + firstLetter
		} else {
			valid++
		}
		key = key*sigma + int(c)
		if valid == q {
			idx.flat[key] = merge(idx.flat[key], pred)
		}
	}
}

// buildByGram is buildFlat for gram spaces too large for a table: the
// gram itself is the key.
func (idx *Index) buildByGram(text []byte) {
	q := idx.q
	valid := 0
	for i, b := range text {
		if idx.code[b] < 0 {
			valid = 0
			continue
		}
		if valid < q {
			valid++
		}
		if valid < q {
			continue
		}
		start := i + 1 - q
		pred := mixed
		if start > 0 && idx.code[text[start-1]] >= 0 {
			pred = uint16(idx.code[text[start-1]]) + firstLetter
		}
		gram := text[start : i+1]
		idx.byGram[string(gram)] = merge(idx.byGram[string(gram)], pred)
	}
}

// merge folds one occurrence preceded by pred into a gram's state.
func merge(state, pred uint16) uint16 {
	switch state {
	case absent:
		return pred
	case pred:
		return state
	}
	return mixed
}

// Q returns the gram length.
func (idx *Index) Q() int { return idx.q }

// state returns the state of gram.
func (idx *Index) state(gram []byte) uint16 {
	if len(gram) != idx.q {
		return absent
	}
	if idx.flat == nil {
		return idx.byGram[string(gram)]
	}
	key := 0
	for _, b := range gram {
		c := idx.code[b]
		if c < 0 {
			return absent
		}
		key = key*idx.sigma + int(c)
	}
	return idx.flat[key]
}

// Dominated reports whether the fork for gram is dominated when the
// query character preceding it is prev: true iff gram occurs in the
// text and every occurrence is immediately preceded by prev.
func (idx *Index) Dominated(gram []byte, prev byte) bool {
	c := idx.code[prev]
	return c >= 0 && idx.state(gram) == uint16(c)+firstLetter
}

// SizeBytes reports the memory footprint of the index: the flat table,
// or the occurring grams' bytes and states plus map overhead. This is
// the "dominate index" size curve of Figure 11.
func (idx *Index) SizeBytes() int {
	if idx.flat != nil {
		return 2 * len(idx.flat)
	}
	return len(idx.byGram) * (idx.q + 2 + 32)
}
