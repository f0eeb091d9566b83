package bwt

import (
	"math/bits"
	"slices"
)

// packedRank is the bit-parallel rank structure for small alphabets
// (four letters, the DNA case): the BWT is stored 2-bit-packed in 64-bit
// words — the representation the paper itself assumes ("every
// character in BWT sequence can be stored using 2 bits") — with the
// occurrence checkpoints interleaved into the same block, so one rank
// query touches one contiguous 48-byte region: two words of per-symbol
// counts followed by four words holding 128 symbols. Within the block
// the count of a symbol is answered with XOR + popcount instead of a
// byte scan, which is what makes backward search bit-parallel.
//
// The sentinel row's placeholder is stored as code 0, exactly like the
// byte layout; FMIndex applies the same query-time correction. A store
// text's separator rows are stored as code 0 too, so that a DNA store
// with its separator letter (σ = 5) still fits two bits per row: seps
// lists those rows, and each block holding one sets prSepFlag in its
// code-0 count, which excludes them. A text with no separator has no
// list and no flag, so it pays no byte and no extra memory access.
type packedRank struct {
	rows   int
	blocks []uint64
	seps   []int32 // separator rows, increasing; nil when there are none
}

const (
	prSymsPerWord  = 32                          // 2 bits per symbol
	prDataWords    = 4                           // data words per block
	prRowsPerBlock = prSymsPerWord * prDataWords // 128
	prCountWords   = 2                           // 4 × uint32 running counts
	prStride       = prCountWords + prDataWords  // uint64s per block
	prLowBits      = 0x5555555555555555          // low bit of every 2-bit group
	// prSepFlag marks, in a block's code-0 count, a block that holds a
	// separator row. Rows number fewer than 2³¹, so the bit is free.
	prSepFlag = 1 << 31
)

// buildPackedRank packs the dense-code BWT (values 0..3) into blocks.
// With sepOff set the codes are one higher (1..4) and code 0 marks a
// separator row, which is stored as code 0, listed in seps and left
// out of the counts; the sentinel row's placeholder stays code 0 and
// counted, as without separators.
func buildPackedRank(codes []byte, sentinelRow, sepOff int) *packedRank {
	rows := len(codes)
	nBlocks := rows/prRowsPerBlock + 1
	p := &packedRank{rows: rows, blocks: make([]uint64, nBlocks*prStride)}
	var running [4]uint32
	for b := 0; b < nBlocks; b++ {
		base := b * prStride
		p.blocks[base] = uint64(running[0]) | uint64(running[1])<<32
		p.blocks[base+1] = uint64(running[2]) | uint64(running[3])<<32
		lo := b * prRowsPerBlock
		hi := min(lo+prRowsPerBlock, rows)
		for i := lo; i < hi; i++ {
			c := codes[i]
			if sepOff != 0 && i != sentinelRow {
				if c == 0 {
					p.seps = append(p.seps, int32(i))
					p.blocks[base] |= prSepFlag
					continue
				}
				c--
			}
			running[c]++
			off := i - lo
			p.blocks[base+prCountWords+off/prSymsPerWord] |=
				uint64(c) << uint(2*(off%prSymsPerWord))
		}
	}
	return p
}

// eqMask returns a bitmap with the low bit of every 2-bit group set
// where the group of w equals the group of pat.
func eqMask(w, pat uint64) uint64 {
	x := w ^ pat
	return ^(x | x>>1) & prLowBits
}

// pat returns code k replicated into every 2-bit group.
func prPat(k int) uint64 { return uint64(k) * prLowBits }

// at returns the symbol stored at row.
func (p *packedRank) at(row int) byte {
	blk := row / prRowsPerBlock
	off := row % prRowsPerBlock
	w := p.blocks[blk*prStride+prCountWords+off/prSymsPerWord]
	return byte(w >> uint(2*(off%prSymsPerWord)) & 3)
}

// rank returns the number of occurrences of code k in rows [0, row),
// counting the sentinel placeholder as code 0 (the caller corrects).
func (p *packedRank) rank(k, row int) int32 {
	blk := row / prRowsPerBlock
	base := blk * prStride
	cnt := int32(uint32(p.blocks[base+k>>1] >> (uint(k&1) * 32)))
	rem := row % prRowsPerBlock
	pat := prPat(k)
	data := p.blocks[base+prCountWords : base+prStride]
	full := rem / prSymsPerWord
	for i := 0; i < full; i++ {
		cnt += int32(bits.OnesCount64(eqMask(data[i], pat)))
	}
	if tail := rem % prSymsPerWord; tail != 0 {
		m := eqMask(data[full], pat) & (1<<uint(2*tail) - 1)
		cnt += int32(bits.OnesCount64(m))
	}
	return cnt
}

// rank2 answers rank(k, lo) and rank(k, hi) in one block visit when
// both rows fall in the same block — the backward-search case, where
// lo and hi delimit one suffix-array range: the shared checkpoint is
// read once and the data words up to hi are scanned once, splitting
// each straddled word at lo. Requires lo ≤ hi.
func (p *packedRank) rank2(k, lo, hi int) (int32, int32) {
	bl := lo / prRowsPerBlock
	if bl != hi/prRowsPerBlock {
		return p.rank(k, lo), p.rank(k, hi)
	}
	base := bl * prStride
	cnt := int32(uint32(p.blocks[base+k>>1] >> (uint(k&1) * 32)))
	remLo, remHi := lo%prRowsPerBlock, hi%prRowsPerBlock
	pat := prPat(k)
	data := p.blocks[base+prCountWords : base+prStride]
	var a, b int32 // matches in [0, remLo) and [remLo, remHi)
	for w := 0; w*prSymsPerWord < remHi; w++ {
		m := eqMask(data[w], pat)
		start := w * prSymsPerWord
		if n := remHi - start; n < prSymsPerWord {
			m &= 1<<uint(2*n) - 1
		}
		switch {
		case start+prSymsPerWord <= remLo:
			a += int32(bits.OnesCount64(m))
		case start >= remLo:
			b += int32(bits.OnesCount64(m))
		default:
			split := uint64(1)<<uint(2*(remLo-start)) - 1
			a += int32(bits.OnesCount64(m & split))
			b += int32(bits.OnesCount64(m &^ split))
		}
	}
	return cnt + a, cnt + a + b
}

// ranksAll fills counts[k] = rank(k, row) for every code k < len(counts)
// in one block visit, separating each word into high/low bit planes so
// all four symbol counts come from three popcounts per word.
func (p *packedRank) ranksAll(row int, counts []int32) {
	blk := row / prRowsPerBlock
	base := blk * prStride
	var c [4]int32
	c[0] = int32(uint32(p.blocks[base]))
	c[1] = int32(uint32(p.blocks[base] >> 32))
	c[2] = int32(uint32(p.blocks[base+1]))
	c[3] = int32(uint32(p.blocks[base+1] >> 32))
	rem := row % prRowsPerBlock
	data := p.blocks[base+prCountWords : base+prStride]
	full := rem / prSymsPerWord
	var n1, n2, n3 int32
	for i := 0; i < full; i++ {
		word := data[i]
		lo := word & prLowBits
		hi := word >> 1 & prLowBits
		n3 += int32(bits.OnesCount64(lo & hi))
		n2 += int32(bits.OnesCount64(hi &^ lo))
		n1 += int32(bits.OnesCount64(lo &^ hi))
	}
	if tail := rem % prSymsPerWord; tail != 0 {
		word := data[full] & (1<<uint(2*tail) - 1)
		lo := word & prLowBits
		hi := word >> 1 & prLowBits
		n3 += int32(bits.OnesCount64(lo & hi))
		n2 += int32(bits.OnesCount64(hi &^ lo))
		n1 += int32(bits.OnesCount64(lo &^ hi))
	}
	c[0] += int32(rem) - n1 - n2 - n3
	c[1] += n1
	c[2] += n2
	c[3] += n3
	copy(counts, c[:len(counts)])
}

// countWord adds one data word's symbol populations (restricted to the
// 2-bit groups selected by clip, whose low bits must be set) onto the
// n1/n2/n3 plane counters. Code-0 counts are derived from the scanned
// row total by the callers.
func countWord(word, clip uint64, n1, n2, n3 *int32) {
	lo := word & clip
	hi := word >> 1 & clip
	*n3 += int32(bits.OnesCount64(lo & hi))
	*n2 += int32(bits.OnesCount64(hi &^ lo))
	*n1 += int32(bits.OnesCount64(lo &^ hi))
}

// ranksAll2 fills los[k] = rank(k, lo) and his[k] = rank(k, hi) for
// every code k, visiting the shared block once when lo and hi fall in
// the same block — the ExtendAll case, where the two rows delimit one
// suffix-array range: the checkpoint words are read once and each data
// word up to hi is decomposed into its bit planes once, with straddled
// words split at lo. Requires lo ≤ hi; los and his must have length 4
// (or the alphabet size).
func (p *packedRank) ranksAll2(lo, hi int, los, his []int32) {
	bl := lo / prRowsPerBlock
	if bl != hi/prRowsPerBlock {
		p.ranksAll(lo, los)
		p.ranksAll(hi, his)
		return
	}
	base := bl * prStride
	var c [4]int32
	c[0] = int32(uint32(p.blocks[base]))
	c[1] = int32(uint32(p.blocks[base] >> 32))
	c[2] = int32(uint32(p.blocks[base+1]))
	c[3] = int32(uint32(p.blocks[base+1] >> 32))
	remLo, remHi := lo%prRowsPerBlock, hi%prRowsPerBlock
	data := p.blocks[base+prCountWords : base+prStride]
	var a1, a2, a3, b1, b2, b3 int32 // [0, remLo) and [remLo, remHi)
	for w := 0; w*prSymsPerWord < remHi; w++ {
		word := data[w]
		start := w * prSymsPerWord
		clip := uint64(prLowBits)
		if n := remHi - start; n < prSymsPerWord {
			clip &= 1<<uint(2*n) - 1
		}
		switch {
		case start+prSymsPerWord <= remLo:
			countWord(word, clip, &a1, &a2, &a3)
		case start >= remLo:
			countWord(word, clip, &b1, &b2, &b3)
		default:
			split := (uint64(1)<<uint(2*(remLo-start)) - 1) & prLowBits
			countWord(word, clip&split, &a1, &a2, &a3)
			countWord(word, clip&^split, &b1, &b2, &b3)
		}
	}
	n := min(len(los), 4)
	loC := [4]int32{
		c[0] + int32(remLo) - a1 - a2 - a3,
		c[1] + a1, c[2] + a2, c[3] + a3,
	}
	hiC := [4]int32{
		c[0] + int32(remHi) - a1 - a2 - a3 - b1 - b2 - b3,
		c[1] + a1 + b1, c[2] + a2 + b2, c[3] + a3 + b3,
	}
	copy(los, loC[:n])
	copy(his, hiC[:n])
}

// sepsUpTo advances j, the index in seps of a separator row at or
// after the current block's start, past every separator before row.
func (p *packedRank) sepsUpTo(j int32, row int) int32 {
	for int(j) < len(p.seps) && int(p.seps[j]) < row {
		j++
	}
	return j
}

// sepRank returns the number of separator rows before row, and fix:
// what code 0's count at row, as rank, rank2, ranksAll and ranksAll2
// return it, needs added. Those read a flagged block's code-0
// checkpoint with its flag bit, −2³¹ in their int32 arithmetic (which
// wraps), and count the block's separator rows as code 0. The
// separators before the block are what its checkpoint does not count.
func (p *packedRank) sepRank(row int) (seps, fix int32) {
	blk := row / prRowsPerBlock
	w0, w1 := p.blocks[blk*prStride], p.blocks[blk*prStride+1]
	seps = int32(blk*prRowsPerBlock) - int32(uint32(w0)&^prSepFlag) -
		int32(w0>>32) - int32(uint32(w1)) - int32(w1>>32)
	if uint32(w0)&prSepFlag != 0 {
		j := p.sepsUpTo(seps, row)
		fix = -prSepFlag - (j - seps)
		seps = j
	}
	return seps, fix
}

// isSep reports whether row holds a separator.
func (p *packedRank) isSep(row int) bool {
	if uint32(p.blocks[row/prRowsPerBlock*prStride])&prSepFlag == 0 {
		return false
	}
	_, found := slices.BinarySearch(p.seps, int32(row))
	return found
}

// sizeBytes is the in-memory footprint of the structure.
func (p *packedRank) sizeBytes() int { return 8*len(p.blocks) + 4*len(p.seps) }
