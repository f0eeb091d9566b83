package bwt

import (
	"fmt"
	"math/bits"
	"slices"
)

// packedRank is the bit-parallel rank structure for small alphabets
// (four letters, the DNA case): the BWT is stored 2-bit-packed in 64-bit
// words — the representation the paper itself assumes ("every
// character in BWT sequence can be stored using 2 bits") — with a
// two-level occurrence directory. One rank query touches one contiguous
// 40-byte block — a word of four 16-bit per-symbol counts, relative to
// the block's superblock, followed by four words holding 128 symbols —
// plus its superblock's four absolute counts in a small side slice
// (16 bytes per 2¹⁵ rows). Within the block the count of a symbol is
// answered with XOR + popcount instead of a byte scan, which is what
// makes backward search bit-parallel.
//
// The sentinel row's placeholder is stored as code 0, exactly like the
// byte layout; FMIndex applies the same query-time correction. A store
// text's separator rows are stored as code 0 too, so that a DNA store
// with its separator letter (σ = 5) still fits two bits per row: seps
// lists those rows, the counts leave them out, and each block holding
// one sets prSepFlag, bit 15 of its code-0 count, which no relative
// count reaches. A text with no separator has no list and no flag, so
// it pays no byte and no extra memory access.
type packedRank struct {
	rows   int
	blocks []uint64
	supers [][4]uint32 // per superblock, each code's count before it
	seps   []int32     // separator rows, increasing; nil when there are none
}

const (
	prSymsPerWord  = 32                          // 2 bits per symbol
	prDataWords    = 4                           // data words per block
	prRowsPerBlock = prSymsPerWord * prDataWords // 128
	prDirWords     = 1                           // 4 × 16-bit relative counts
	prStride       = prDirWords + prDataWords    // uint64s per block
	prLowBits      = 0x5555555555555555          // low bit of every 2-bit group
	// prSepFlag marks, in a block's code-0 count, a block that holds a
	// separator row.
	prSepFlag = 1 << (dirFieldBits - 1)
)

// The two-level directory both bit-parallel cores share: per
// superblock of 2¹⁵ rows (256 blocks of 128), each code's absolute
// count before it; per block, each code's count from its superblock's
// start to the block, in a 16-bit field, four to a word. A relative
// count stays below 255·128 < 2¹⁵, so bit 15 of every field is free —
// the packed core's code-0 field keeps prSepFlag there.
const (
	superShift   = 8 // log2 of the blocks per superblock
	dirFieldBits = 16
	dirFieldMask = 1<<(dirFieldBits-1) - 1 // a relative count, flag bit cleared
)

// coreBlocks returns the number of 128-row blocks a core of rows rows
// holds: one more than the full blocks, so that row = rows has one.
func coreBlocks(rows int) int { return rows/prRowsPerBlock + 1 }

// dirField returns code k's relative count from w, the directory word
// holding codes k&^3 to k|3.
func dirField(w uint64, k int) int32 {
	return int32(w >> (dirFieldBits * uint(k&3)) & dirFieldMask)
}

// dirSum returns the sum of the four relative counts in w.
func dirSum(w uint64) int32 {
	return int32((w &^ prSepFlag) * 0x0001_0001_0001_0001 >> 48)
}

// buildPackedRank packs the dense-code BWT (values 0..3) into blocks.
// With sepOff set the codes are one higher (1..4) and code 0 marks a
// separator row, which is stored as code 0, listed in seps and left
// out of the counts; the sentinel row's placeholder stays code 0 and
// counted, as without separators.
func buildPackedRank(codes []byte, sentinelRow, sepOff int) *packedRank {
	rows := len(codes)
	p := &packedRank{rows: rows, blocks: make([]uint64, coreBlocks(rows)*prStride)}
	for i, c := range codes {
		if sepOff != 0 && i != sentinelRow {
			if c == 0 {
				p.seps = append(p.seps, int32(i))
				continue
			}
			c--
		}
		off := i % prRowsPerBlock
		p.blocks[i/prRowsPerBlock*prStride+prDirWords+off/prSymsPerWord] |=
			uint64(c) << uint(2*(off%prSymsPerWord))
	}
	if _, err := p.index(); err != nil {
		panic(err) // unreachable: the rows were packed just above
	}
	return p
}

// index fills both directory levels from the data words and seps, in
// one pass that also checks what a loaded core can get wrong: data past
// the last row and a listed separator row holding a letter. It returns
// each code's count over all rows, separator rows excluded and the
// sentinel's placeholder counted as code 0.
func (p *packedRank) index() ([4]int32, error) {
	var running [4]int32
	nBlocks := len(p.blocks) / prStride
	p.supers = make([][4]uint32, (nBlocks-1)>>superShift+1)
	j := 0 // next separator row
	for b := 0; b < nBlocks; b++ {
		sup := &p.supers[b>>superShift]
		if b&(1<<superShift-1) == 0 {
			for k, r := range running {
				sup[k] = uint32(r)
			}
		}
		base := b * prStride
		lo := b * prRowsPerBlock
		hi := min(lo+prRowsPerBlock, p.rows)
		var dir uint64
		for k, r := range running {
			dir |= uint64(uint32(r)-sup[k]) << (dirFieldBits * uint(k))
		}
		if j < len(p.seps) && int(p.seps[j]) < hi {
			dir |= prSepFlag
		}
		p.blocks[base] = dir
		for w := 0; w < prDataWords; w++ {
			word := p.blocks[base+prDirWords+w]
			valid := min(max(hi-lo-w*prSymsPerWord, 0), prSymsPerWord)
			clip := uint64(prLowBits)
			if valid < prSymsPerWord {
				clip &= 1<<uint(2*valid) - 1
			}
			if word&^(clip|clip<<1) != 0 {
				return running, fmt.Errorf("bwt: rank block %d has data past the last row", b)
			}
			var n1, n2, n3 int32
			countWord(word, clip, &n1, &n2, &n3)
			running[0] += int32(valid) - n1 - n2 - n3
			running[1] += n1
			running[2] += n2
			running[3] += n3
		}
		for ; j < len(p.seps) && int(p.seps[j]) < hi; j++ {
			if p.at(int(p.seps[j])) != 0 {
				return running, fmt.Errorf("bwt: separator row %d holds a letter", p.seps[j])
			}
			running[0]--
		}
	}
	return running, nil
}

// count returns code k's count before block blk: its superblock's
// absolute count plus the block's relative one.
func (p *packedRank) count(blk, k int) int32 {
	return int32(p.supers[blk>>superShift][k&3]) + dirField(p.blocks[blk*prStride], k)
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
	w := p.blocks[blk*prStride+prDirWords+off/prSymsPerWord]
	return byte(w >> uint(2*(off%prSymsPerWord)) & 3)
}

// rank returns the number of occurrences of code k in rows [0, row),
// counting the sentinel placeholder as code 0 (the caller corrects).
func (p *packedRank) rank(k, row int) int32 {
	blk := row / prRowsPerBlock
	base := blk * prStride
	cnt := p.count(blk, k)
	rem := row % prRowsPerBlock
	pat := prPat(k)
	data := p.blocks[base+prDirWords : base+prStride]
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
// lo and hi delimit one suffix-array range: the shared block count is
// read once and the data words up to hi are scanned once, splitting
// each straddled word at lo. Requires lo ≤ hi.
func (p *packedRank) rank2(k, lo, hi int) (int32, int32) {
	bl := lo / prRowsPerBlock
	if bl != hi/prRowsPerBlock {
		return p.rank(k, lo), p.rank(k, hi)
	}
	base := bl * prStride
	cnt := p.count(bl, k)
	remLo, remHi := lo%prRowsPerBlock, hi%prRowsPerBlock
	pat := prPat(k)
	data := p.blocks[base+prDirWords : base+prStride]
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
	block := p.blocks[blk*prStride : blk*prStride+prStride]
	s, d, data := &p.supers[blk>>superShift], block[0], block[prDirWords:]
	rem := row % prRowsPerBlock
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
	c := [4]int32{
		int32(s[0]) + dirField(d, 0) + int32(rem) - n1 - n2 - n3,
		int32(s[1]) + dirField(d, 1) + n1,
		int32(s[2]) + dirField(d, 2) + n2,
		int32(s[3]) + dirField(d, 3) + n3,
	}
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
// suffix-array range: the block's counts are read once and each data
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
	s, d := &p.supers[bl>>superShift], p.blocks[base]
	c := [4]int32{
		int32(s[0]) + dirField(d, 0), int32(s[1]) + dirField(d, 1),
		int32(s[2]) + dirField(d, 2), int32(s[3]) + dirField(d, 3),
	}
	remLo, remHi := lo%prRowsPerBlock, hi%prRowsPerBlock
	data := p.blocks[base+prDirWords : base+prStride]
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

// lfRank answers the LF-step pair — the code stored at row and the
// number of its occurrences in rows [0, row), counting the sentinel
// placeholder and separator rows as code 0 (the caller corrects) — in
// one block visit: the data word holding row is read once for both.
func (p *packedRank) lfRank(row int) (code byte, cnt int32) {
	blk := row / prRowsPerBlock
	base := blk * prStride
	rem := row % prRowsPerBlock
	data := p.blocks[base+prDirWords : base+prStride]
	full := rem / prSymsPerWord
	shift := uint(2 * (rem % prSymsPerWord))
	w := data[full&(prDataWords-1)]
	code = byte(w >> shift & 3)
	pat := prPat(int(code))
	cnt = p.count(blk, int(code)) + int32(bits.OnesCount64(eqMask(w, pat)&(1<<shift-1)))
	for i := 0; i < full; i++ {
		cnt += int32(bits.OnesCount64(eqMask(data[i], pat)))
	}
	return code, cnt
}

// sepRank returns the number of separator rows before row, and fix:
// what code 0's count at row, as rank, rank2, ranksAll and ranksAll2
// return it, needs added. The directory leaves separator rows out, so
// the rows before row's block that it does not count are the
// separators before the block; a block without one costs nothing more.
// A flagged block's in-block scan counts its separator rows as code 0,
// which fix takes back.
func (p *packedRank) sepRank(row int) (seps, fix int32) {
	blk := row / prRowsPerBlock
	w, s := p.blocks[blk*prStride], &p.supers[blk>>superShift]
	seps = int32(blk*prRowsPerBlock) - int32(s[0]+s[1]+s[2]+s[3]) - dirSum(w)
	if w&prSepFlag != 0 {
		j := p.sepsUpTo(seps, row)
		seps, fix = j, seps-j
	}
	return seps, fix
}

// splitSeps completes counts at row on a core with separator rows:
// counts[1:] holds the core's counts at row as ranksAll returns them
// (codes the alphabet lacks count nothing), and it sets counts[0] to
// the separator rows before row and takes those of row's block out of
// counts[1]. The counts sum to row less the separators before the
// block, which the directory leaves out and the in-block scan counts as
// code 0, so a block without one costs a flag test.
func (p *packedRank) splitSeps(row int, counts []int32) {
	seps := int32(row)
	for _, c := range counts[1:] {
		seps -= c
	}
	if p.blocks[row/prRowsPerBlock*prStride]&prSepFlag != 0 {
		j := p.sepsUpTo(seps, row)
		counts[1] -= j - seps
		seps = j
	}
	counts[0] = seps
}

// sepsUpTo advances j, the index in seps of a separator row at or
// after the current block's start, past every separator before row:
// the flagged-block path of sepRank and splitSeps.
func (p *packedRank) sepsUpTo(j int32, row int) int32 {
	for int(j) < len(p.seps) && int(p.seps[j]) < row {
		j++
	}
	return j
}

// isSep reports whether row holds a separator.
func (p *packedRank) isSep(row int) bool {
	if p.blocks[row/prRowsPerBlock*prStride]&prSepFlag == 0 {
		return false
	}
	_, found := slices.BinarySearch(p.seps, int32(row))
	return found
}

// sizeBytes is the in-memory footprint of the structure.
func (p *packedRank) sizeBytes() int {
	return 8*len(p.blocks) + 16*len(p.supers) + 4*len(p.seps)
}
