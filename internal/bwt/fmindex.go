package bwt

import (
	"fmt"
	"math/bits"

	"repro/internal/sais"
	"repro/internal/seq"
)

// FMIndex is a compressed suffix array over a byte text: the BWT of
// text+$ with rank support for O(1) backward-search steps and a
// sampled suffix array for locating occurrences. Rows are indexed over
// the n+1 suffixes of text+$; row 0 is always the $ suffix. The index
// is read-only after construction and safe for concurrent use.
//
// Rank support comes in three layouts. For four letters or fewer (DNA,
// the dominant workload) — plus, in a store's text, the separator
// letter, whose rows the core stores as a placeholder and lists
// aside — the BWT is 2-bit-packed into 64-bit words with interleaved
// 16-bit occurrence counts (relative to a superblock's absolute ones)
// and ranks are answered bit-parallel via popcount (packedRank).
// Otherwise, for σ ≤ 32 (protein) the BWT is decomposed into
// ⌈log2 σ⌉ bit planes under the same two-level directory and ranks are
// answered by masked popcounts over the planes (planeRank). Larger
// alphabets — and ForceByteRank — keep the BWT as a byte slice with
// periodic checkpoints and a single-pass scan. All three layouts also
// answer the two rows of a backward-search step fused (rank2,
// ranksAll2): when lo and hi share a block, its counts are read and
// the block scanned once for both.
type FMIndex struct {
	n           int    // text length
	sigma       int    // number of distinct bytes in the text
	letters     []byte // distinct text bytes in sorted order
	code        [256]int16
	sentinelRow int     // row whose BWT character is $
	c           []int32 // c[k] = 1 + #text chars with code < k ("+1" is the $ row)

	// Byte layout (σ > 4, or ForceByteRank): dense codes with
	// checkpointed counts; bwt[sentinelRow] is a placeholder.
	bwt       []byte
	occ       []int32 // checkpoints: occ[(row/ckpt)*sigma + k]
	ckptEvery int

	// Packed layout (1 ≤ σ ≤ 4, not counting a separator letter):
	// bit-parallel rank core. sepOff is 1 when the text's separator
	// letter (seq.Separator, dense code 0) is kept off the core — its
	// rows stored as the placeholder and listed in pk.seps, every other
	// code k stored as k-1 — and 0 otherwise.
	pk     *packedRank
	sepOff int

	// Plane layout (4 < σ ≤ 32): bit-plane rank core.
	pl *planeRank

	// Position samples. Every sampled text position p is a multiple of
	// sampleRate, so the samples hold p/sampleRate in row order,
	// bit-packed at sampleBits = bits.Len(n/sampleRate) bits each.
	sampleRate int
	sampleMark *rankBitVector // rows carrying a position sample
	sampleBits uint
	samples    []uint64
}

// Options tunes the space/time trade-off of the index.
type Options struct {
	// SampleRate is the text-position sampling interval for locate
	// queries (smaller = faster locate, more space). Default 8.
	SampleRate int
	// CheckpointEvery is the occurrence-count checkpoint interval of
	// the byte layout (smaller = faster rank, more space). Default 64.
	// The bit-parallel cores count every 128 rows regardless.
	CheckpointEvery int
	// ForceByteRank disables the bit-parallel rank cores (the 2-bit
	// packed layout for four letters and the bit-plane layout for σ ≤ 32),
	// keeping the byte-scan layout. Used by benchmarks and property
	// tests that compare the implementations; the byte layout is the
	// reference the others are checked against.
	ForceByteRank bool
}

// New builds an FM-index of text with default options.
func New(text []byte) *FMIndex { return NewWithOptions(text, Options{}) }

// NewWithOptions builds an FM-index of text.
func NewWithOptions(text []byte, opt Options) *FMIndex {
	if opt.SampleRate <= 0 {
		opt.SampleRate = 8
	}
	if opt.CheckpointEvery <= 0 {
		opt.CheckpointEvery = 64
	}
	fm := &FMIndex{
		n:          len(text),
		ckptEvery:  opt.CheckpointEvery,
		sampleRate: opt.SampleRate,
	}
	// Dense alphabet of the text.
	var present [256]bool
	for _, b := range text {
		present[b] = true
	}
	for i := range fm.code {
		fm.code[i] = -1
	}
	for b := 0; b < 256; b++ {
		if present[b] {
			fm.code[b] = int16(len(fm.letters))
			fm.letters = append(fm.letters, byte(b))
		}
	}
	fm.sigma = len(fm.letters)

	sa := sais.Build(text)
	rows := fm.n + 1

	// One pass over the suffix array fills the BWT over dense codes (the
	// sentinel's row gets a placeholder code 0, never counted), the
	// letter counts behind the C array, and the position samples: every
	// SampleRate-th text position, plus 0. Row 0 is the $ suffix, at
	// position n, whose BWT character is the last text byte.
	codes := make([]byte, rows)
	var counts [256]int32
	rate := int32(fm.sampleRate)
	fm.sampleMark = newRankBitVector(rows)
	width, words := sampleLayout(fm.n, fm.sampleRate)
	fm.sampleBits, fm.samples = width, make([]uint64, words)
	next := 0 // samples placed so far
	if fm.n > 0 {
		codes[0] = byte(fm.code[text[fm.n-1]])
		counts[codes[0]]++
	}
	if int32(fm.n)%rate == 0 {
		fm.sampleMark.Set(0)
		fm.putSample(next, fm.n)
		next++
	}
	for i, p := range sa {
		row := i + 1
		if p == 0 {
			fm.sentinelRow = row
		} else {
			c := byte(fm.code[text[p-1]])
			codes[row] = c
			counts[c]++
		}
		if p%rate == 0 {
			fm.sampleMark.Set(row)
			fm.putSample(next, int(p))
			next++
		}
	}
	fm.sampleMark.Finish()

	// C array.
	fm.c = make([]int32, fm.sigma+1)
	sum := int32(1) // the $ row precedes everything
	for k := 0; k < fm.sigma; k++ {
		fm.c[k] = sum
		sum += counts[k]
	}
	fm.c[fm.sigma] = sum

	if !opt.ForceByteRank {
		fm.pk, fm.pl, fm.sepOff = fm.buildCore(codes)
	}
	if fm.pk == nil && fm.pl == nil {
		fm.bwt = codes
		fm.occ = buildOcc(codes, fm.sentinelRow, fm.ckptEvery, fm.sigma)
	}
	return fm
}

// sampleLayout returns the width of a packed position sample and the
// number of words that hold them all: the positions 0, rate, 2·rate, …
// up to n are sampled, n/rate + 1 values of at most n/rate.
func sampleLayout(n, rate int) (width uint, words int) {
	width = uint(bits.Len(uint(n / rate)))
	return width, int((uint(n/rate+1)*width + 63) / 64)
}

// putSample stores text position p, a multiple of the sample rate, as
// the i-th sample.
func (fm *FMIndex) putSample(i, p int) {
	packedPut(fm.samples, fm.sampleBits, i, uint64(p/fm.sampleRate))
}

// sample returns the text position held as the i-th sample.
func (fm *FMIndex) sample(i int) int {
	return int(packedGet(fm.samples, fm.sampleBits, i)) * fm.sampleRate
}

// packedPut ORs v, of at most width bits, into words as the i-th of
// their width-bit values, whose bits must still be zero.
func packedPut(words []uint64, width uint, i int, v uint64) {
	if width == 0 {
		return
	}
	bit := uint(i) * width
	words[bit/64] |= v << (bit % 64)
	if bit%64+width > 64 {
		words[bit/64+1] |= v >> (64 - bit%64)
	}
}

// packedGet returns the i-th width-bit value of words.
func packedGet(words []uint64, width uint, i int) uint64 {
	if width == 0 {
		return 0
	}
	bit := uint(i) * width
	v := words[bit/64] >> (bit % 64)
	if bit%64+width > 64 {
		v |= words[bit/64+1] << (64 - bit%64)
	}
	return v & (1<<width - 1)
}

// Rank-layout tags, as stored in a serialized index's header.
const (
	layoutByte    = 0
	layoutPacked2 = 1 // 2-bit packed: four letters, plus separator rows
	layoutPlane   = 2 // bit planes, σ ≤ 32
)

// coreLayout returns the rank core an alphabet gets — 2-bit packed for
// at most four letters besides a leading separator letter, bit planes
// up to σ = 32, bytes beyond — and, for the packed core, whether the
// separator letter is kept off it.
func coreLayout(letters []byte) (layout uint32, sepOff int) {
	sigma := len(letters)
	if sigma > 1 && letters[0] == seq.Separator {
		sepOff = 1
	}
	switch {
	case sigma >= 1 && sigma-sepOff <= 4:
		return layoutPacked2, sepOff
	case sigma <= 32 && sigma > 0:
		return layoutPlane, 0
	}
	return layoutByte, 0
}

// buildCore builds the bit-parallel rank core for the dense-code BWT
// codes, or returns nils when the alphabet takes the byte layout.
func (fm *FMIndex) buildCore(codes []byte) (*packedRank, *planeRank, int) {
	switch layout, sepOff := coreLayout(fm.letters); layout {
	case layoutPacked2:
		return buildPackedRank(codes, fm.sentinelRow, sepOff), nil, sepOff
	case layoutPlane:
		return nil, buildPlaneRank(codes, fm.sigma), 0
	}
	return nil, nil, 0
}

// buildOcc computes the byte layout's periodic occurrence checkpoints,
// skipping the sentinel placeholder.
func buildOcc(codes []byte, sentinelRow, ckptEvery, sigma int) []int32 {
	rows := len(codes)
	nCkpt := rows/ckptEvery + 1
	occ := make([]int32, nCkpt*sigma)
	running := make([]int32, sigma)
	for row := 0; row <= rows; row++ {
		if row%ckptEvery == 0 {
			copy(occ[(row/ckptEvery)*sigma:], running)
		}
		if row < rows && row != sentinelRow {
			running[codes[row]]++
		}
	}
	return occ
}

// Len returns the text length n.
func (fm *FMIndex) Len() int { return fm.n }

// Rows returns the number of suffix-array rows, n+1.
func (fm *FMIndex) Rows() int { return fm.n + 1 }

// Sigma returns the number of distinct bytes in the text.
func (fm *FMIndex) Sigma() int { return fm.sigma }

// Letters returns the distinct text bytes in sorted order.
func (fm *FMIndex) Letters() []byte { return fm.letters }

// CodeOf returns the dense code of byte b, or -1 when b does not occur
// in the text.
func (fm *FMIndex) CodeOf(b byte) int { return int(fm.code[b]) }

// bwtCode returns the dense code stored at the given BWT row (the
// sentinel row reads its placeholder).
func (fm *FMIndex) bwtCode(row int) byte {
	if fm.pk != nil {
		c := fm.pk.at(row)
		if fm.sepOff != 0 {
			if c == 0 && fm.pk.isSep(row) {
				return 0
			}
			c++
		}
		return c
	}
	if fm.pl != nil {
		return fm.pl.at(row)
	}
	return fm.bwt[row]
}

// rank returns the number of occurrences of code k in bwt[0:row),
// excluding the sentinel placeholder.
func (fm *FMIndex) rank(k int, row int) int32 {
	if fm.pk != nil {
		if fm.sepOff != 0 {
			return fm.rankSep(k, row)
		}
		r := fm.pk.rank(k, row)
		if k == 0 && row > fm.sentinelRow {
			r-- // the placeholder is stored as code 0
		}
		return r
	}
	if fm.pl != nil {
		r := fm.pl.rank(k, row)
		if k == 0 && row > fm.sentinelRow {
			r-- // the placeholder is stored as code 0
		}
		return r
	}
	ck := row / fm.ckptEvery
	start := ck * fm.ckptEvery
	r := fm.occ[ck*fm.sigma+k]
	kb := byte(k)
	for _, b := range fm.bwt[start:row] {
		if b == kb {
			r++
		}
	}
	if sent := fm.sentinelRow; sent >= start && sent < row && fm.bwt[sent] == kb {
		r--
	}
	return r
}

// Rank is the exported form of rank, for benchmarks and property
// tests: the number of occurrences of the letter with dense code k
// among the first row BWT rows, sentinel excluded. k must be in
// [0, Sigma()) and row in [0, Rows()].
func (fm *FMIndex) Rank(k, row int) int32 { return fm.rank(k, row) }

// rank2 answers rank(k, lo) and rank(k, hi) fused: when both rows land
// in the same checkpoint block the block is visited once — the
// ExtendCode case, where lo and hi delimit one suffix-array range.
// Requires lo ≤ hi.
func (fm *FMIndex) rank2(k, lo, hi int) (rlo, rhi int32) {
	switch {
	case fm.pk != nil:
		if fm.sepOff != 0 {
			return fm.rank2Sep(k, lo, hi)
		}
		rlo, rhi = fm.pk.rank2(k, lo, hi)
	case fm.pl != nil:
		rlo, rhi = fm.pl.rank2(k, lo, hi)
	default:
		ckLo := lo / fm.ckptEvery
		if ckLo != hi/fm.ckptEvery {
			return fm.rank(k, lo), fm.rank(k, hi)
		}
		r := fm.occ[ckLo*fm.sigma+k]
		kb := byte(k)
		start := ckLo * fm.ckptEvery
		for _, b := range fm.bwt[start:lo] {
			if b == kb {
				r++
			}
		}
		rlo = r
		for _, b := range fm.bwt[lo:hi] {
			if b == kb {
				r++
			}
		}
		rhi = r
		if sent := fm.sentinelRow; sent >= start && sent < hi && fm.bwt[sent] == kb {
			if sent < lo {
				rlo--
			}
			rhi--
		}
		return rlo, rhi
	}
	// Packed and plane layouts store the sentinel placeholder as code 0.
	if k == 0 {
		if lo > fm.sentinelRow {
			rlo--
		}
		if hi > fm.sentinelRow {
			rhi--
		}
	}
	return rlo, rhi
}

// Rank2 is the exported form of rank2, for benchmarks and property
// tests. Requires lo ≤ hi.
func (fm *FMIndex) Rank2(k, lo, hi int) (int32, int32) { return fm.rank2(k, lo, hi) }

// InitRange returns the suffix-array range of the empty pattern,
// covering all rows.
func (fm *FMIndex) InitRange() (lo, hi int) { return 0, fm.Rows() }

// ExtendCode performs one backward-search step: given the range of a
// pattern S it returns the range of cS, where c is the byte with dense
// code k. An empty result is (x, x). The two boundary ranks are
// answered fused (one checkpoint-block visit when lo and hi are
// close, which deep trie nodes always are).
func (fm *FMIndex) ExtendCode(lo, hi, k int) (int, int) {
	if lo > hi {
		return int(fm.c[k] + fm.rank(k, lo)), int(fm.c[k] + fm.rank(k, hi))
	}
	rlo, rhi := fm.rank2(k, lo, hi)
	return int(fm.c[k] + rlo), int(fm.c[k] + rhi)
}

// Extend is ExtendCode for a raw byte. Bytes absent from the text
// yield an empty range.
func (fm *FMIndex) Extend(lo, hi int, b byte) (int, int) {
	k := fm.code[b]
	if k < 0 {
		return lo, lo
	}
	return fm.ExtendCode(lo, hi, int(k))
}

// ranksAll fills counts[k] = rank(k, row) for every code k in one
// pass — the batched form the trie traversals use when enumerating all
// children of a node.
func (fm *FMIndex) ranksAll(row int, counts []int32) {
	if fm.pk != nil {
		if fm.sepOff != 0 {
			fm.pk.ranksAll(row, counts[1:])
			fm.pk.splitSeps(row, counts)
			if row > fm.sentinelRow {
				counts[1]--
			}
			return
		}
		fm.pk.ranksAll(row, counts)
		if row > fm.sentinelRow {
			counts[0]-- // the placeholder is stored as code 0
		}
		return
	}
	if fm.pl != nil {
		fm.pl.ranksAll(row, counts)
		if row > fm.sentinelRow {
			counts[0]-- // the placeholder is stored as code 0
		}
		return
	}
	ck := row / fm.ckptEvery
	copy(counts, fm.occ[ck*fm.sigma:ck*fm.sigma+fm.sigma])
	start := ck * fm.ckptEvery
	sent := fm.sentinelRow
	bwt := fm.bwt
	for i := start; i < row; i++ {
		counts[bwt[i]]++
	}
	if sent >= start && sent < row {
		counts[bwt[sent]]--
	}
}

// RanksAll is the exported form of ranksAll, for benchmarks and
// property tests. counts must have length Sigma().
func (fm *FMIndex) RanksAll(row int, counts []int32) { fm.ranksAll(row, counts) }

// ranksAll2 fills los[k] = rank(k, lo) and his[k] = rank(k, hi) for
// every code k. When both rows fall in the same checkpoint block —
// the ExtendAll case, where they delimit one suffix-array range — the
// block is visited once: the checkpoint is read once, the rows up to
// hi are decomposed once, and both count vectors are derived from that
// single pass. Requires lo ≤ hi.
func (fm *FMIndex) ranksAll2(lo, hi int, los, his []int32) {
	switch {
	case fm.pk != nil && fm.sepOff != 0:
		fm.pk.ranksAll2(lo, hi, los[1:], his[1:])
		fm.pk.splitSeps(lo, los)
		fm.pk.splitSeps(hi, his)
		if lo > fm.sentinelRow {
			los[1]--
		}
		if hi > fm.sentinelRow {
			his[1]--
		}
		return
	case fm.pk != nil:
		fm.pk.ranksAll2(lo, hi, los, his)
	case fm.pl != nil:
		fm.pl.ranksAll2(lo, hi, los, his)
	default:
		ckLo := lo / fm.ckptEvery
		if ckLo != hi/fm.ckptEvery {
			fm.ranksAll(lo, los)
			fm.ranksAll(hi, his)
			return
		}
		sigma := fm.sigma
		copy(los[:sigma], fm.occ[ckLo*sigma:ckLo*sigma+sigma])
		start := ckLo * fm.ckptEvery
		bwt := fm.bwt
		for _, b := range bwt[start:lo] {
			los[b]++
		}
		copy(his[:sigma], los[:sigma])
		for _, b := range bwt[lo:hi] {
			his[b]++
		}
		if sent := fm.sentinelRow; sent >= start && sent < hi {
			if sent < lo {
				los[bwt[sent]]--
			}
			his[bwt[sent]]--
		}
		return
	}
	// Packed and plane layouts store the sentinel placeholder as code 0.
	if lo > fm.sentinelRow {
		los[0]--
	}
	if hi > fm.sentinelRow {
		his[0]--
	}
}

// A packed core that lists separator rows (sepOff = 1) stores every
// code k ≥ 1 as k-1 and separator rows as its code 0, like the
// sentinel's placeholder. Its ranks for codes 0 and 1 need the
// separator count and correction sepRank returns (splitSeps, when all
// four counts are at hand).

// rankSep is rank on a packed core with separator rows.
func (fm *FMIndex) rankSep(k, row int) int32 {
	if k > 1 {
		return fm.pk.rank(k-1, row)
	}
	seps, fix := fm.pk.sepRank(row)
	if k == 0 {
		return seps
	}
	r := fm.pk.rank(0, row) + fix
	if row > fm.sentinelRow {
		r--
	}
	return r
}

// rank2Sep is rank2 on a packed core with separator rows.
func (fm *FMIndex) rank2Sep(k, lo, hi int) (int32, int32) {
	if k > 1 {
		return fm.pk.rank2(k-1, lo, hi)
	}
	sepLo, fixLo := fm.pk.sepRank(lo)
	sepHi, fixHi := fm.pk.sepRank(hi)
	if k == 0 {
		return sepLo, sepHi
	}
	rlo, rhi := fm.pk.rank2(0, lo, hi)
	rlo, rhi = rlo+fixLo, rhi+fixHi
	if lo > fm.sentinelRow {
		rlo--
	}
	if hi > fm.sentinelRow {
		rhi--
	}
	return rlo, rhi
}

// RanksAll2 is the exported form of ranksAll2, for benchmarks and
// property tests. los and his must have length Sigma(); lo ≤ hi.
func (fm *FMIndex) RanksAll2(lo, hi int, los, his []int32) { fm.ranksAll2(lo, hi, los, his) }

// ExtendAll performs the backward-search step for every character at
// once: after the call, the range of (letter k)+S is
// [los[k], his[k]). los and his must have length Sigma(). The two row
// ranks are fused: when lo and hi share a checkpoint block (every node
// below the first few trie levels) the cost is ~one rank pass, versus
// 2σ for σ ExtendCode calls.
func (fm *FMIndex) ExtendAll(lo, hi int, los, his []int32) {
	if lo <= hi {
		fm.ranksAll2(lo, hi, los, his)
	} else {
		fm.ranksAll(lo, los)
		fm.ranksAll(hi, his)
	}
	for k := 0; k < fm.sigma; k++ {
		los[k] += fm.c[k]
		his[k] += fm.c[k]
	}
}

// LFStep returns the dense code of the BWT character at row together
// with the row of that character's extension (the last-to-first
// mapping). ok is false at the sentinel row, where the pattern cannot
// be extended. For a width-one suffix-array range [row, row+1) this is
// the whole backward-search step: the unique extending character and
// its one-row range — one rank instead of the 2σ a full child
// enumeration costs.
func (fm *FMIndex) LFStep(row int) (code, next int, ok bool) {
	if row == fm.sentinelRow {
		return 0, 0, false
	}
	k, r := fm.lfRank(row)
	return k, int(fm.c[k] + r), true
}

// lfRank returns the dense code at row together with rank(code, row),
// fused into one rank-structure visit on the bit-parallel cores (each
// would otherwise find row's block twice, and the plane layout walk its
// planes twice). row must not be the sentinel row.
func (fm *FMIndex) lfRank(row int) (int, int32) {
	if fm.pk != nil {
		code, r := fm.pk.lfRank(row)
		if fm.sepOff != 0 {
			if code != 0 {
				return int(code) + 1, r
			}
			seps, fix := fm.pk.sepRank(row)
			if fm.pk.isSep(row) {
				return 0, seps
			}
			r += fix
		}
		if code == 0 && row > fm.sentinelRow {
			r-- // the placeholder is stored as code 0
		}
		return int(code) + fm.sepOff, r
	}
	if fm.pl != nil {
		code, r := fm.pl.lfRank(row)
		if code == 0 && row > fm.sentinelRow {
			r-- // the placeholder is stored as code 0
		}
		return int(code), r
	}
	k := int(fm.bwtCode(row))
	return k, fm.rank(k, row)
}

// Search returns the suffix-array range [lo, hi) of pattern in the
// text. The number of occurrences is hi-lo.
func (fm *FMIndex) Search(pattern []byte) (lo, hi int) {
	lo, hi = fm.InitRange()
	for i := len(pattern) - 1; i >= 0 && lo < hi; i-- {
		lo, hi = fm.Extend(lo, hi, pattern[i])
	}
	return lo, hi
}

// Count returns the number of occurrences of pattern in the text.
func (fm *FMIndex) Count(pattern []byte) int {
	lo, hi := fm.Search(pattern)
	return hi - lo
}

// lf is the last-to-first mapping: the row of the suffix starting one
// position before the suffix of the given row.
func (fm *FMIndex) lf(row int) int {
	if row == fm.sentinelRow {
		return 0
	}
	k, r := fm.lfRank(row)
	return int(fm.c[k] + r)
}

// Position returns the text position (0-based) of the suffix at the
// given row; row 0 (the $ suffix) yields n.
func (fm *FMIndex) Position(row int) int {
	steps := 0
	for !fm.sampleMark.Get(row) {
		row = fm.lf(row)
		steps++
		if steps > fm.n+1 {
			// Unreachable on an index built by this package (the walk
			// ends within SampleRate steps); turns a semantically
			// corrupted loaded index into a wrong answer, not a hang.
			return 0
		}
	}
	p := fm.sample(fm.sampleMark.Rank(row)) + steps
	if p > fm.n {
		p = 0 // only reachable through a corrupted loaded index
	}
	return p
}

// Locate returns the text positions of all suffixes in rows [lo, hi),
// i.e. the starting positions of the pattern whose range is [lo, hi).
// The positions are not sorted.
func (fm *FMIndex) Locate(lo, hi int) []int {
	return fm.LocateAppend(lo, hi, make([]int, 0, hi-lo))
}

// locateChunk bounds the batched locate's stack scratch: rows are
// resolved in groups of up to locateChunk at a time.
const locateChunk = 64

// LocateAppend is Locate appending into buf, for callers that reuse a
// positions buffer across queries (the engines' emit paths locate once
// per trie node and must not allocate per node).
//
// Rows are resolved batched, grouped by distance-to-sample: sweep s
// checks every still-walking row of the chunk against the sample
// bitmap, emits the rows whose distance is exactly s, and LF-steps the
// rest together. Each chain is independent (LF is a permutation, so
// chains never merge), but the grouped sweep keeps the rank-structure
// accesses of up to locateChunk rows adjacent in time instead of
// walking each row's full chain before touching the next — the
// cache-friendlier order on the wide ranges emit-heavy searches
// locate.
func (fm *FMIndex) LocateAppend(lo, hi int, buf []int) []int {
	var rows, offs [locateChunk]int
	for base := lo; base < hi; base += locateChunk {
		n := min(locateChunk, hi-base)
		start := len(buf)
		for i := 0; i < n; i++ {
			rows[i] = base + i
			offs[i] = start + i
			buf = append(buf, 0)
		}
		pending := n
		for s := 0; pending > 0; s++ {
			if s > fm.n+1 {
				// Unreachable on an index built by this package (every
				// walk ends within SampleRate steps); turns a corrupted
				// loaded index into wrong answers, not a hang.
				for k := 0; k < pending; k++ {
					buf[offs[k]] = 0
				}
				break
			}
			w := 0
			for k := 0; k < pending; k++ {
				row := rows[k]
				if fm.sampleMark.Get(row) {
					p := fm.sample(fm.sampleMark.Rank(row)) + s
					if p > fm.n {
						p = 0 // only reachable through a corrupted loaded index
					}
					buf[offs[k]] = p
					continue
				}
				rows[w] = fm.lf(row)
				offs[w] = offs[k]
				w++
			}
			pending = w
		}
	}
	return buf
}

// SizeBytes reports the actual in-memory footprint of the index
// structures (rank core with both directory levels, C array, bit-packed
// position samples and their bitmap). Used by the Figure 11 index-size
// experiment.
func (fm *FMIndex) SizeBytes() int {
	rank := len(fm.bwt) + 4*len(fm.occ)
	if fm.pk != nil {
		rank = fm.pk.sizeBytes()
	}
	if fm.pl != nil {
		rank = fm.pl.sizeBytes()
	}
	return rank + 4*len(fm.c) + 8*len(fm.samples) + fm.sampleMark.SizeBytes()
}

// PackedSizeBytes estimates the footprint with the BWT packed at
// ceil(log2 sigma) bits per character, the accounting the paper uses
// ("every character in BWT sequence can be stored using 2 bits"), and
// the rank directory (or the byte layout's checkpoints), C array,
// bit-packed samples and sample bitmap as held.
func (fm *FMIndex) PackedSizeBytes() int {
	bitsPer := 1
	for 1<<bitsPer < fm.sigma {
		bitsPer++
	}
	rows := fm.n + 1
	packed := (rows*bitsPer + 7) / 8
	dir := 4 * len(fm.occ)
	if fm.pk != nil {
		dir = fm.pk.sizeBytes() - 8*prDataWords*coreBlocks(rows)
	}
	if fm.pl != nil {
		dir = fm.pl.sizeBytes() - 8*fm.pl.nPlanes*plDataWords*coreBlocks(rows)
	}
	return packed + 4*len(fm.c) + dir +
		8*len(fm.samples) + fm.sampleMark.SizeBytes()
}

// String describes the index briefly.
func (fm *FMIndex) String() string {
	layout := "byte"
	if fm.pk != nil {
		layout = "packed2"
	}
	if fm.pl != nil {
		layout = fmt.Sprintf("plane%d", fm.pl.nPlanes)
	}
	return fmt.Sprintf("FMIndex(n=%d, sigma=%d, sample=%d, rank=%s)", fm.n, fm.sigma, fm.sampleRate, layout)
}
