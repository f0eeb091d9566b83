// Package qgram builds the inverted lists of q-grams of the query that
// q-prefix filtering needs (§3.1.3 of the paper): "we decompose P into
// a set of q-grams by sliding a window of length q over the characters
// of P. For each q-gram in P, we generate an inverted list of its
// start positions in P. The time complexity of building inverted lists
// is O(m)."
//
// Keys are encoded as packed integers when the alphabet is small
// enough (⌈log2 σ⌉·q ≤ 62 bits), the common case for both DNA and
// protein q values; otherwise a string-keyed map is used.
//
// The packed-key index is a flat open-addressing table over reusable
// slabs, not a Go map: Rearm re-fills the same storage for the next
// query, so a serving session that owns one Index stops allocating for
// warm query shapes — the last per-query allocation of the session
// path (the ROADMAP's "qgram index reuse" item).
package qgram

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
)

// Index is the inverted q-gram index of a query string. The zero value
// is empty and re-armable: build with New, or re-arm an existing Index
// in place with Rearm.
// The index deliberately does NOT retain the query slice: everything
// it answers is read from its own slabs, so a pooled idle session
// holding a re-armable Index never pins a caller's query buffer.
type Index struct {
	q      int
	packer *Packer

	// Packed-key layout: an open-addressing table on the packed gram
	// key plus one flat position buffer, all re-armed in place. A
	// gram's inverted list is pos[starts[o]:starts[o+1]] where o is the
	// gram's ordinal (first-seen order).
	slotKeys []uint64 // packed key + 1; 0 marks an empty slot
	slotOrd  []int32  // slot → gram ordinal
	shift    uint     // 64 − log2(len(slotKeys)), the Fibonacci-hash shift
	keys     []uint64 // ordinal → packed key
	starts   []int32  // ordinal → range of pos (len = distinct + 1)
	pos      []int32  // every gram position, grouped by ordinal, ascending
	counts   []int32  // scratch: per-ordinal counts, then fill cursors
	sorted   []uint64 // scratch: keys in sorted order (GramsSorted*)
	buf      []byte   // scratch: decoded gram handed to callbacks

	strKeys map[string][]int32 // fallback for unpackable alphabets
}

// Packer encodes fixed-length grams over a byte alphabet into uint64
// keys. The zero value is unusable; build one with NewPacker.
type Packer struct {
	q       int
	bits    uint
	mask    uint64 // low bits·q bits, the window of one packed gram
	code    [256]int16
	letters []byte
}

// NewPacker returns a packer for q-grams over the given letters, or
// nil when q grams of this alphabet do not fit into 62 bits.
func NewPacker(letters []byte, q int) *Packer {
	bits := uint(1)
	for 1<<bits < len(letters) {
		bits++
	}
	if uint(q)*bits > 62 {
		return nil
	}
	p := &Packer{q: q, bits: bits, letters: append([]byte(nil), letters...)}
	p.mask = uint64(1)<<(bits*uint(q)) - 1
	for i := range p.code {
		p.code[i] = -1
	}
	for i, c := range letters {
		p.code[c] = int16(i)
	}
	return p
}

// Pack encodes gram (which must have length q). ok is false when a
// byte is outside the alphabet.
func (p *Packer) Pack(gram []byte) (uint64, bool) {
	var key uint64
	for _, c := range gram {
		v := p.code[c]
		if v < 0 {
			return 0, false
		}
		key = key<<p.bits | uint64(v)
	}
	return key, true
}

// Next slides the packed key one character right: drop the leading
// character of the current gram and append c. prev must be the key of
// the previous window.
func (p *Packer) Next(prev uint64, c byte) (uint64, bool) {
	v := p.code[c]
	if v < 0 {
		return 0, false
	}
	return (prev<<p.bits | uint64(v)) & p.mask, true
}

// Q returns the gram length.
func (p *Packer) Q() int { return p.q }

// fibMix is 2^64/φ, the Fibonacci-hashing multiplier: consecutive
// packed keys (grams sharing long prefixes) scatter across the table.
const fibMix = 0x9E3779B97F4A7C15

// New builds the inverted index of the q-grams of query. letters is
// the alphabet of interest (grams containing other bytes are skipped,
// which is how separator bytes in concatenated databases are kept out
// of the filter).
func New(query []byte, q int, letters []byte) (*Index, error) {
	idx := &Index{}
	if err := idx.Rearm(query, q, letters); err != nil {
		return nil, err
	}
	return idx, nil
}

// Rearm rebuilds the index in place for a new query, reusing every
// slab the previous query sized: in a serving loop over queries of a
// stable shape (same alphabet and length class) it allocates nothing.
// The packer is kept when (q, letters) are unchanged. Position slices
// previously returned by Positions/Grams are invalidated.
func (idx *Index) Rearm(query []byte, q int, letters []byte) error {
	if q <= 0 {
		return fmt.Errorf("qgram: q = %d must be positive", q)
	}
	if idx.packer == nil || idx.packer.q != q || !bytes.Equal(idx.packer.letters, letters) {
		idx.packer = NewPacker(letters, q)
	}
	idx.q = q
	idx.strKeys = nil
	if idx.packer == nil {
		return idx.rearmFallback(query, letters)
	}
	if cap(idx.buf) < q {
		idx.buf = make([]byte, q)
	} else {
		idx.buf = idx.buf[:q]
	}

	windows := len(query) - q + 1
	if windows < 0 {
		windows = 0
	}
	// Table capacity: next power of two holding every window at ≤ 50%
	// load. A larger table from an earlier query is kept as-is (a
	// clear is a memset; shrinking would only cost reallocation later).
	size := 64
	for size < 2*windows {
		size <<= 1
	}
	if len(idx.slotKeys) < size {
		idx.slotKeys = make([]uint64, size)
		idx.slotOrd = make([]int32, size)
	} else {
		size = len(idx.slotKeys)
		clear(idx.slotKeys)
	}
	idx.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)

	// Pass 1: slide the packed window across the query (O(m), invalid
	// bytes reset the run), assigning ordinals first-seen and counting
	// occurrences per gram.
	keys, counts := idx.keys[:0], idx.counts[:0]
	p := idx.packer
	total := 0
	var key uint64
	run := 0
	for j := 0; j < len(query); j++ {
		v := p.code[query[j]]
		if v < 0 {
			run = 0
			continue
		}
		key = (key<<p.bits | uint64(v)) & p.mask
		if run++; run < q {
			continue
		}
		total++
		k := key + 1
		s := (k * fibMix) >> idx.shift
		for {
			stored := idx.slotKeys[s]
			if stored == k {
				counts[idx.slotOrd[s]]++
				break
			}
			if stored == 0 {
				idx.slotKeys[s] = k
				idx.slotOrd[s] = int32(len(keys))
				keys = append(keys, key)
				counts = append(counts, 1)
				break
			}
			s = (s + 1) & mask
		}
	}

	// Prefix-sum the counts into list boundaries, then reuse counts as
	// the fill cursors of pass 2.
	n := len(keys)
	if cap(idx.starts) < n+1 {
		idx.starts = make([]int32, n+1)
	} else {
		idx.starts = idx.starts[:n+1]
	}
	off := int32(0)
	for o := 0; o < n; o++ {
		idx.starts[o] = off
		off += counts[o]
		counts[o] = idx.starts[o]
	}
	idx.starts[n] = off
	if cap(idx.pos) < total {
		idx.pos = make([]int32, total)
	} else {
		idx.pos = idx.pos[:total]
	}

	// Pass 2: the same slide, now writing each occurrence into its
	// gram's slice of the flat position buffer (ascending within a
	// gram, since windows are visited left to right).
	key, run = 0, 0
	for j := 0; j < len(query); j++ {
		v := p.code[query[j]]
		if v < 0 {
			run = 0
			continue
		}
		key = (key<<p.bits | uint64(v)) & p.mask
		if run++; run < q {
			continue
		}
		s := ((key + 1) * fibMix) >> idx.shift
		for idx.slotKeys[s] != key+1 {
			s = (s + 1) & mask
		}
		o := idx.slotOrd[s]
		idx.pos[counts[o]] = int32(j - q + 1)
		counts[o]++
	}
	idx.keys, idx.counts = keys, counts
	return nil
}

// rearmFallback is the string-keyed map path for alphabets whose grams
// do not pack into 62 bits. It rebuilds the map per call — the
// fallback never serves the hot DNA/protein configurations, so its
// allocations do not matter.
func (idx *Index) rearmFallback(query, letters []byte) error {
	idx.strKeys = make(map[string][]int32)
	valid := func(gram []byte) bool {
		for _, c := range gram {
			if bytes.IndexByte(letters, c) < 0 {
				return false
			}
		}
		return true
	}
	for i := 0; i+idx.q <= len(query); i++ {
		gram := query[i : i+idx.q]
		if valid(gram) {
			idx.strKeys[string(gram)] = append(idx.strKeys[string(gram)], int32(i))
		}
	}
	return nil
}

// ordPositions returns gram ordinal o's inverted list.
func (idx *Index) ordPositions(o int32) []int32 {
	return idx.pos[idx.starts[o]:idx.starts[o+1]]
}

// lookup probes the table for key; ok is false when the gram is not
// indexed.
func (idx *Index) lookup(key uint64) (ord int32, ok bool) {
	if len(idx.slotKeys) == 0 {
		return 0, false
	}
	mask := uint64(len(idx.slotKeys) - 1)
	k := key + 1
	s := (k * fibMix) >> idx.shift
	for {
		stored := idx.slotKeys[s]
		if stored == k {
			return idx.slotOrd[s], true
		}
		if stored == 0 {
			return 0, false
		}
		s = (s + 1) & mask
	}
}

// Q returns the gram length of the index.
func (idx *Index) Q() int { return idx.q }

// Positions returns the 0-based starting positions of gram in the
// query, or nil when it does not occur. The returned slice is shared
// and only valid until the next Rearm; callers must not modify it.
func (idx *Index) Positions(gram []byte) []int32 {
	if len(gram) != idx.q {
		return nil
	}
	if idx.strKeys != nil {
		return idx.strKeys[string(gram)]
	}
	key, ok := idx.packer.Pack(gram)
	if !ok {
		return nil
	}
	o, ok := idx.lookup(key)
	if !ok {
		return nil
	}
	return idx.ordPositions(o)
}

// Distinct returns the number of distinct q-grams indexed.
func (idx *Index) Distinct() int {
	if idx.strKeys != nil {
		return len(idx.strKeys)
	}
	return len(idx.keys)
}

// Decode writes the gram encoded by key into buf, which must have
// length q. The inverse of Pack.
func (p *Packer) Decode(key uint64, buf []byte) {
	for c := p.q - 1; c >= 0; c-- {
		buf[c] = p.letters[key&(1<<p.bits-1)]
		key >>= p.bits
	}
}

// Grams calls fn for every distinct gram with its sorted position
// list, in an unspecified gram order. fn must not retain the gram
// slice across calls.
func (idx *Index) Grams(fn func(gram []byte, positions []int32)) {
	if idx.strKeys != nil {
		buf := make([]byte, idx.q)
		for gram, pos := range idx.strKeys {
			copy(buf, gram)
			fn(buf, pos)
		}
		return
	}
	for o, key := range idx.keys {
		idx.packer.Decode(key, idx.buf)
		fn(idx.buf, idx.ordPositions(int32(o)))
	}
}

// GramsSorted is Grams in lexicographic gram order, for deterministic
// traversal. Like Grams, fn must not retain the gram slice across
// calls (it is a reused buffer); copy it if it must outlive the
// callback.
func (idx *Index) GramsSorted(fn func(gram []byte, positions []int32)) {
	idx.GramsSortedLCP(func(gram []byte, _ int, positions []int32) {
		fn(gram, positions)
	})
}

// GramsSortedLCP is GramsSorted extended with the length of the longest
// common prefix between each gram and its predecessor (0 for the first
// gram). Consecutive sorted grams share long prefixes — the shared
// backward-search steps prefix-shared resolution exploits. fn must not
// retain the gram slice across calls.
func (idx *Index) GramsSortedLCP(fn func(gram []byte, lcp int, positions []int32)) {
	if idx.strKeys == nil {
		// Packed keys sort in lexicographic gram order because dense
		// codes are assigned in ascending byte order, and the LCP of two
		// consecutive grams is read off the highest differing bit of
		// their keys. slices.Sort over a reused scratch copy, not
		// sort.Slice: on a protein query (~m distinct grams) the
		// reflection-based swapper dominated the whole resolution pass.
		sorted := append(idx.sorted[:0], idx.keys...)
		slices.Sort(sorted)
		idx.sorted = sorted
		cbits := int(idx.packer.bits)
		for i, key := range sorted {
			lcp := 0
			if i > 0 {
				lcp = idx.q - 1 - (63-bits.LeadingZeros64(sorted[i-1]^key))/cbits
			}
			o, _ := idx.lookup(key)
			idx.packer.Decode(key, idx.buf)
			fn(idx.buf, lcp, idx.ordPositions(o))
		}
		return
	}
	keys := make([]string, 0, len(idx.strKeys))
	for g := range idx.strKeys {
		keys = append(keys, g)
	}
	slices.Sort(keys)
	buf := make([]byte, idx.q)
	prev := ""
	for _, g := range keys {
		lcp := 0
		for lcp < len(prev) && lcp < len(g) && prev[lcp] == g[lcp] {
			lcp++
		}
		copy(buf, g)
		fn(buf, lcp, idx.strKeys[g])
		prev = g
	}
}

// SizeBytes estimates the index footprint (table slots, list headers
// and positions), for completeness in space accounting.
func (idx *Index) SizeBytes() int {
	if idx.strKeys != nil {
		size := 0
		for g, l := range idx.strKeys {
			size += len(g) + 4*len(l) + 40
		}
		return size
	}
	return 12*len(idx.slotKeys) + 12*len(idx.keys) + 4*len(idx.pos) + 4*len(idx.starts)
}
