package bwt

import (
	"fmt"
	"math/bits"
)

// planeRank is the bit-plane rank structure for mid-sized alphabets
// (4 < σ ≤ 32 — the protein case): the dense-code BWT is decomposed
// into ⌈log2 σ⌉ bit planes of 64-bit words, with the packed core's
// two-level occurrence directory: each block opens with ⌈σ/4⌉ words of
// 16-bit per-symbol counts relative to its superblock, so one rank
// query touches one contiguous block plus its superblock's σ absolute
// counts in a small side slice. Within a block the rows whose code
// equals k are isolated by ANDing each plane word (complemented where
// bit p of k is 0) and counted with one popcount — the same
// bit-parallel principle as the 2-bit packed DNA layout, generalised
// to five planes. At σ = 20 a block is 15 words: 5 of counts and 10 of
// planes.
//
// The sentinel row's placeholder is stored as code 0, exactly like the
// other layouts; FMIndex applies the same query-time correction.
type planeRank struct {
	rows     int
	sigma    int
	nPlanes  int // ⌈log2 σ⌉, 3..5 for the alphabets routed here
	dirWords int // ⌈σ/4⌉ — four 16-bit relative counts per word
	stride   int // uint64s per block: dirWords + nPlanes·plDataWords
	blocks   []uint64
	supers   []uint32 // per superblock, each code's count before it: σ apiece
}

const (
	plRowsPerWord  = 64
	plDataWords    = 2                           // 64-row word groups per block
	plRowsPerBlock = plRowsPerWord * plDataWords // 128, matching packedRank
)

// buildPlaneRank decomposes the dense-code BWT (values 0..sigma-1)
// into bit planes and indexes them. Block data is word-group-major: the
// nPlanes plane words of rows [0,64) precede those of rows [64,128),
// so a scan touches adjacent words.
func buildPlaneRank(codes []byte, sigma int) *planeRank {
	p := newPlaneRank(len(codes), sigma)
	p.blocks = make([]uint64, coreBlocks(p.rows)*p.stride)
	for i, c := range codes {
		off := i % plRowsPerBlock
		word := i/plRowsPerBlock*p.stride + p.dirWords + off/plRowsPerWord*p.nPlanes
		bit := uint(off % plRowsPerWord)
		for pl := 0; pl < p.nPlanes; pl++ {
			p.blocks[word+pl] |= uint64(c>>uint(pl)&1) << bit
		}
	}
	if _, err := p.index(); err != nil {
		panic(err) // unreachable: the codes are below σ
	}
	return p
}

// newPlaneRank returns the dimensions of a plane core of rows rows over
// an alphabet of sigma codes, its blocks and directory not yet
// allocated.
func newPlaneRank(rows, sigma int) *planeRank {
	nPlanes := 1
	for 1<<nPlanes < sigma {
		nPlanes++
	}
	p := &planeRank{
		rows:     rows,
		sigma:    sigma,
		nPlanes:  nPlanes,
		dirWords: (sigma + 3) / 4,
	}
	p.stride = p.dirWords + nPlanes*plDataWords
	return p
}

// index fills both directory levels from the plane words, in one pass
// that also checks what a loaded core can get wrong: data past the
// last row and a code outside the alphabet. It returns each code's
// count over all rows, the sentinel's placeholder counted as code 0.
func (p *planeRank) index() ([]int32, error) {
	running := make([]int32, p.sigma)
	nBlocks := len(p.blocks) / p.stride
	p.supers = make([]uint32, ((nBlocks-1)>>superShift+1)*p.sigma)
	for b := 0; b < nBlocks; b++ {
		sup := p.supers[b>>superShift*p.sigma:][:p.sigma]
		if b&(1<<superShift-1) == 0 {
			for k, r := range running {
				sup[k] = uint32(r)
			}
		}
		base := b * p.stride
		dir := p.blocks[base : base+p.dirWords]
		clear(dir)
		for k, r := range running {
			dir[k>>2] |= uint64(uint32(r)-sup[k]) << (dirFieldBits * uint(k&3))
		}
		lo := b * plRowsPerBlock
		for w := 0; w < plDataWords; w++ {
			valid := min(max(p.rows-lo-w*plRowsPerWord, 0), plRowsPerWord)
			clip := ^uint64(0)
			if valid < plRowsPerWord {
				clip = 1<<uint(valid) - 1
			}
			group := p.blocks[base+p.dirWords+w*p.nPlanes : base+p.dirWords+(w+1)*p.nPlanes]
			for _, g := range group {
				if g&^clip != 0 {
					return nil, fmt.Errorf("bwt: rank block %d has data past the last row", b)
				}
			}
			var sum int32
			for _, c := range running {
				sum -= c
			}
			p.countGroup(group, clip, running)
			for _, c := range running {
				sum += c
			}
			if int(sum) != valid {
				return nil, fmt.Errorf("bwt: rank block %d holds a code outside the alphabet", b)
			}
		}
	}
	return running, nil
}

// count returns code k's count before block blk: its superblock's
// absolute count plus the block's relative one.
func (p *planeRank) count(blk, k int) int32 {
	return int32(p.supers[blk>>superShift*p.sigma+k]) + dirField(p.blocks[blk*p.stride+k>>2], k)
}

// counts sets counts[k] to every code k's count before block blk.
func (p *planeRank) counts(blk int, counts []int32) {
	sup := p.supers[blk>>superShift*p.sigma:][:p.sigma]
	dir := p.blocks[blk*p.stride:][:p.dirWords]
	counts = counts[:len(sup)]
	for k, s := range sup {
		counts[k] = int32(s) + dirField(dir[k>>2], k)
	}
}

// symMask returns the bitmap of rows within one 64-row word group
// whose stored code equals k. group holds the nPlanes plane words.
func (p *planeRank) symMask(group []uint64, k int) uint64 {
	m := group[0]
	if k&1 == 0 {
		m = ^m
	}
	for pl := 1; pl < p.nPlanes; pl++ {
		w := group[pl]
		if k>>uint(pl)&1 == 0 {
			w = ^w
		}
		m &= w
	}
	return m
}

// at returns the symbol stored at row.
func (p *planeRank) at(row int) byte {
	blk := row / plRowsPerBlock
	off := row % plRowsPerBlock
	word := blk*p.stride + p.dirWords + off/plRowsPerWord*p.nPlanes
	bit := uint(off % plRowsPerWord)
	var c byte
	for pl := 0; pl < p.nPlanes; pl++ {
		c |= byte(p.blocks[word+pl]>>bit&1) << uint(pl)
	}
	return c
}

// rank returns the number of occurrences of code k in rows [0, row),
// counting the sentinel placeholder as code 0 (the caller corrects).
func (p *planeRank) rank(k, row int) int32 {
	blk := row / plRowsPerBlock
	base := blk * p.stride
	cnt := p.count(blk, k)
	rem := row % plRowsPerBlock
	data := p.blocks[base+p.dirWords : base+p.stride]
	full := rem / plRowsPerWord
	for w := 0; w < full; w++ {
		cnt += int32(bits.OnesCount64(p.symMask(data[w*p.nPlanes:], k)))
	}
	if tail := rem % plRowsPerWord; tail != 0 {
		m := p.symMask(data[full*p.nPlanes:], k) & (1<<uint(tail) - 1)
		cnt += int32(bits.OnesCount64(m))
	}
	return cnt
}

// lfRank answers the LF-step pair — the code stored at row and the
// number of its occurrences in rows [0, row) — in one block visit:
// the plane words holding row are read once for both the code
// extraction and the in-block count. The byte layout reads the code
// for free (one byte load); here it would otherwise cost a second
// walk over the planes.
func (p *planeRank) lfRank(row int) (code byte, cnt int32) {
	blk := row / plRowsPerBlock
	base := blk * p.stride
	rem := row % plRowsPerBlock
	data := p.blocks[base+p.dirWords : base+p.stride]
	full := rem / plRowsPerWord
	group := data[full*p.nPlanes : full*p.nPlanes+p.nPlanes]
	bit := uint(rem % plRowsPerWord)
	m := ^uint64(0)
	for pl, w := range group {
		if w>>bit&1 != 0 {
			code |= 1 << uint(pl)
		} else {
			w = ^w
		}
		m &= w
	}
	cnt = p.count(blk, int(code)) + int32(bits.OnesCount64(m&(1<<bit-1)))
	for w := 0; w < full; w++ {
		cnt += int32(bits.OnesCount64(p.symMask(data[w*p.nPlanes:], int(code))))
	}
	return code, cnt
}

// rank2 answers rank(k, lo) and rank(k, hi) in one block visit when
// both rows fall in the same block — the backward-search case, where
// lo and hi delimit one suffix-array range: the shared block count is
// read once and the plane words up to hi are masked once, splitting
// each straddled word at lo. Requires lo ≤ hi.
func (p *planeRank) rank2(k, lo, hi int) (int32, int32) {
	bl := lo / plRowsPerBlock
	if bl != hi/plRowsPerBlock {
		return p.rank(k, lo), p.rank(k, hi)
	}
	base := bl * p.stride
	cnt := p.count(bl, k)
	remLo, remHi := lo%plRowsPerBlock, hi%plRowsPerBlock
	data := p.blocks[base+p.dirWords : base+p.stride]
	var a, b int32 // counts in [0, remLo) and [remLo, remHi)
	for w := 0; w*plRowsPerWord < remHi; w++ {
		m := p.symMask(data[w*p.nPlanes:], k)
		start := w * plRowsPerWord
		if n := remHi - start; n < plRowsPerWord {
			m &= 1<<uint(n) - 1
		}
		switch {
		case start+plRowsPerWord <= remLo:
			a += int32(bits.OnesCount64(m))
		case start >= remLo:
			b += int32(bits.OnesCount64(m))
		default:
			split := uint64(1)<<uint(remLo-start) - 1
			a += int32(bits.OnesCount64(m & split))
			b += int32(bits.OnesCount64(m &^ split))
		}
	}
	return cnt + a, cnt + a + b
}

// countGroup adds the per-symbol populations of one 64-row word group,
// restricted to the rows selected by clip, onto counts. The group is
// decomposed as a branch-free radix sweep: level by level, plane
// nPlanes-1 down to 0, each row-subset mask splits into its
// plane-0/plane-1 halves in place, so after nPlanes levels mask k
// holds exactly the rows whose code is k — 2·(2^nPlanes − 1) ANDs and
// σ popcounts total, with no per-symbol rescan of the planes.
func (p *planeRank) countGroup(group []uint64, clip uint64, counts []int32) {
	if clip == 0 {
		return
	}
	if p.nPlanes == 5 {
		countGroup5(group, clip, counts, p.sigma)
		return
	}
	var masks [32]uint64
	masks[0] = clip
	width := 1
	// Splitting high plane first keeps bit pl of the final mask index
	// at position pl: every later split shifts earlier bits left.
	for pl := p.nPlanes - 1; pl >= 0; pl-- {
		w := group[pl]
		for i := width - 1; i >= 0; i-- {
			m := masks[i]
			masks[2*i] = m &^ w
			masks[2*i+1] = m & w
		}
		width *= 2
	}
	for k := 0; k < p.sigma; k++ {
		counts[k] += int32(bits.OnesCount64(masks[k]))
	}
}

// countGroup5 is countGroup fully unrolled for the five-plane case
// (16 < σ ≤ 32, which includes the σ=20 protein alphabet): the whole
// radix tree lives in registers — no mask array, no zero-init, no
// bounds checks on the splits.
func countGroup5(group []uint64, clip uint64, counts []int32, sigma int) {
	g0, g1, g2, g3, g4 := group[0], group[1], group[2], group[3], group[4]
	a0, a1 := clip&^g4, clip&g4
	b0, b1, b2, b3 := a0&^g3, a0&g3, a1&^g3, a1&g3
	c0, c1, c2, c3 := b0&^g2, b0&g2, b1&^g2, b1&g2
	c4, c5, c6, c7 := b2&^g2, b2&g2, b3&^g2, b3&g2
	var d [16]uint64
	d[0], d[1], d[2], d[3] = c0&^g1, c0&g1, c1&^g1, c1&g1
	d[4], d[5], d[6], d[7] = c2&^g1, c2&g1, c3&^g1, c3&g1
	d[8], d[9], d[10], d[11] = c4&^g1, c4&g1, c5&^g1, c5&g1
	d[12], d[13], d[14], d[15] = c6&^g1, c6&g1, c7&^g1, c7&g1
	counts = counts[:sigma]
	for k := 0; k+1 < sigma; k += 2 {
		pair := d[k>>1]
		counts[k] += int32(bits.OnesCount64(pair &^ g0))
		counts[k+1] += int32(bits.OnesCount64(pair & g0))
	}
	if sigma&1 != 0 {
		counts[sigma-1] += int32(bits.OnesCount64(d[sigma>>1] &^ g0))
	}
}

// ranksAll fills counts[k] = rank(k, row) for every code k in one
// block visit.
func (p *planeRank) ranksAll(row int, counts []int32) {
	blk := row / plRowsPerBlock
	base := blk * p.stride
	p.counts(blk, counts)
	rem := row % plRowsPerBlock
	data := p.blocks[base+p.dirWords : base+p.stride]
	for w := 0; w*plRowsPerWord < rem; w++ {
		clip := ^uint64(0)
		if n := rem - w*plRowsPerWord; n < plRowsPerWord {
			clip = 1<<uint(n) - 1
		}
		p.countGroup(data[w*p.nPlanes:w*p.nPlanes+p.nPlanes], clip, counts)
	}
}

// ranksAll2 fills los[k] = rank(k, lo) and his[k] = rank(k, hi) for
// every code k, visiting the shared block once when lo and hi fall in
// the same block: the block's counts are read once and every plane
// word up to hi is decomposed once, with straddled words split at lo.
// his is used as the [lo, hi) delta accumulator before the final sum.
// Requires lo ≤ hi.
func (p *planeRank) ranksAll2(lo, hi int, los, his []int32) {
	bl := lo / plRowsPerBlock
	if bl != hi/plRowsPerBlock {
		p.ranksAll(lo, los)
		p.ranksAll(hi, his)
		return
	}
	base := bl * p.stride
	p.counts(bl, los)
	clear(his[:p.sigma])
	remLo, remHi := lo%plRowsPerBlock, hi%plRowsPerBlock
	data := p.blocks[base+p.dirWords : base+p.stride]
	for w := 0; w*plRowsPerWord < remHi; w++ {
		group := data[w*p.nPlanes : w*p.nPlanes+p.nPlanes]
		start := w * plRowsPerWord
		clip := ^uint64(0)
		if n := remHi - start; n < plRowsPerWord {
			clip = 1<<uint(n) - 1
		}
		switch {
		case start+plRowsPerWord <= remLo:
			p.countGroup(group, clip, los)
		case start >= remLo:
			p.countGroup(group, clip, his)
		default:
			split := uint64(1)<<uint(remLo-start) - 1
			p.countGroup(group, clip&split, los)
			p.countGroup(group, clip&^split, his)
		}
	}
	for k := 0; k < p.sigma; k++ {
		his[k] += los[k]
	}
}

// sizeBytes is the in-memory footprint of the structure.
func (p *planeRank) sizeBytes() int { return 8*len(p.blocks) + 4*len(p.supers) }
