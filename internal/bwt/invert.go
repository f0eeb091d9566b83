package bwt

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// Inversion: the BWT alone determines the text and the suffix array,
// so a persisted index carries neither the text nor the position
// samples, only a sparse list of anchors — the rows of every text
// position that is a multiple of the anchor stride — and a load
// rebuilds both. One LF chain starts at row 0 (the $ suffix, at
// position n) and one at each anchor, and walks back to the next lower
// anchored position, writing a letter per step and recording the row
// it stands on at each sampled position. Every chain must land on
// exactly that anchor's row, and anchor 0 must be the sentinel row.
// Together these checks prove the index: the chains join into one walk
// of n steps from row 0 to the sentinel row, never stepping from the
// sentinel row before, so LF is a single cycle of all n+1 rows — the
// BWT is the BWT of the rebuilt text — and the walk visits every row
// at its true text position, so the rebuilt samples are true by
// construction.

// anchorSpan is the least distance between two anchored text
// positions.
const anchorSpan = 512

// invertChunk is how many chains one sweep steps together: the chains
// are independent, so their rank-core visits overlap instead of
// waiting on each other.
const invertChunk = 32

// invertSplitChars is the fewest characters per worker for which an
// inversion splits its chains across GOMAXPROCS goroutines.
const invertSplitChars = 1 << 17

// anchorLayout returns the anchors of an index over n characters at
// sample rate rate: their stride is rate<<shift, rate times the least
// power of two that brings it to anchorSpan, so every anchored position
// is sampled and a sample p/rate is anchored when its low shift bits
// are zero; count positions are anchored, every multiple of the stride
// below n (position 0 alone when n is 0); and each anchor's row is
// packed at width = bits.Len(n) bits in words uint64s.
func anchorLayout(n, rate int) (shift uint, count int, width uint, words int) {
	shift = uint(bits.Len(uint((anchorSpan+rate-1)/rate - 1)))
	count = max(n-1, 0)/(rate<<shift) + 1
	width = uint(bits.Len(uint(n)))
	return shift, count, width, int((uint(count)*width + 63) / 64)
}

// anchorRows returns the row of each anchored text position, read from
// the position samples: one pass over the samples finds the anchored
// ones — in the common case by a single shifted word, as an anchored
// sample's low shift bits are zero — and one pass over the sample
// bitmap's words finds their rows, in sample order.
func (fm *FMIndex) anchorRows() []int32 {
	shift, count, _, _ := anchorLayout(fm.n, fm.sampleRate)
	anchors := make([]int32, count)
	type hit struct{ j, k int } // sample j holds anchor k
	hits := make([]hit, 0, count+1)
	width, words := fm.sampleBits, fm.samples
	mask := uint64(1)<<shift - 1
	low := uint64(1)<<min(shift, width) - 1 // the bits of mask in one sample
	for j := range fm.n/fm.sampleRate + 1 {
		if bit := uint(j) * width; width > 0 && words[bit/64]>>(bit%64)&low != 0 {
			continue
		}
		if v := packedGet(words, width, j); v&mask == 0 && v>>shift < uint64(count) {
			hits = append(hits, hit{j, int(v >> shift)})
		}
	}
	wi, before := 0, 0 // a bitmap word, and the set bits before it
	for _, h := range hits {
		for before+bits.OnesCount64(fm.sampleMark.words[wi]) <= h.j {
			before += bits.OnesCount64(fm.sampleMark.words[wi])
			wi++
		}
		w := fm.sampleMark.words[wi]
		for range h.j - before {
			w &= w - 1
		}
		anchors[h.k] = int32(wi*64 + bits.TrailingZeros64(w))
	}
	return anchors
}

// invertWorkers returns how many goroutines invert an index over n
// characters.
func invertWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/invertSplitChars))
}

// invertChain is one LF walk of an inversion: its current row, the
// text position of the suffix at that row, and the sample slot of the
// next sampled position it reaches.
type invertChain struct{ row, pos, slot int }

// inversion is the state the chains of one inversion share; each chain
// writes only the stretch of text and slots below its own start.
type inversion struct {
	fm      *FMIndex
	anchors []int32
	stride  int
	text    []byte
	slots   []int32 // slots[p/rate]: the row of sampled position p
}

// invert rebuilds the indexed text from the BWT and the position
// samples and their bitmap from the walk, given the row of each
// anchored text position. It fails when anchor 0 is not the sentinel
// row, or a chain reaches the sentinel row ($) before the next lower
// anchored position or lands anywhere but on its anchor's row; fm is
// left as it was then. Until the chains have passed it allocates only
// the text and a row per sample.
func (fm *FMIndex) invert(anchors []int32) ([]byte, error) {
	n, rate := fm.n, fm.sampleRate
	if int(anchors[0]) != fm.sentinelRow {
		return nil, fmt.Errorf("bwt: anchor 0 is row %d, not the sentinel row %d", anchors[0], fm.sentinelRow)
	}
	shift, _, _, _ := anchorLayout(n, rate)
	iv := &inversion{
		fm:      fm,
		anchors: anchors,
		stride:  rate << shift,
		text:    make([]byte, n),
		// Position n is row 0, so its slot, when n is sampled, is
		// already right.
		slots: make([]int32, n/rate+1),
	}
	if n > 0 {
		// The $ suffix's chain: the letters after the last anchor.
		last := len(anchors) - 1
		top := [1]invertChain{{row: 0, pos: n, slot: (n - 1) / rate}}
		if err := iv.walk(top[:], n-last*iv.stride); err != nil {
			return nil, err
		}
	}
	// The chains from anchors 1..count-1 write disjoint stretches, so
	// workers may split them.
	chains := len(anchors) - 1
	workers := invertWorkers(n)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = iv.walkAnchors(1+chains*w/workers, 1+chains*(w+1)/workers)
		}()
	}
	errs[0] = iv.walkAnchors(1, 1+chains/workers)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	fm.setSamples(iv.slots)
	return iv.text, nil
}

// walkAnchors walks the chains that start at anchors [lo, hi),
// invertChunk at a time.
func (iv *inversion) walkAnchors(lo, hi int) error {
	var chains [invertChunk]invertChain
	for k := lo; k < hi; k += invertChunk {
		cs := chains[:min(invertChunk, hi-k)]
		for i := range cs {
			pos := (k + i) * iv.stride
			cs[i] = invertChain{row: int(iv.anchors[k+i]), pos: pos, slot: (pos - 1) / iv.fm.sampleRate}
		}
		if err := iv.walk(cs, iv.stride); err != nil {
			return err
		}
	}
	return nil
}

// walk steps every chain of cs steps times, interleaved, writing the
// letter before each suffix at its text position and recording the row
// of each sampled position reached, then checks that each chain landed
// on its anchor's row. The chains must start at positions congruent
// modulo the sample rate, so they reach sampled positions together.
func (iv *inversion) walk(cs []invertChain, steps int) error {
	fm, rate := iv.fm, iv.fm.sampleRate
	due := (cs[0].pos-1)%rate + 1 // steps to the next sampled position
	for s := 0; s < steps; s++ {
		for i := range cs {
			c := &cs[i]
			if c.row == fm.sentinelRow {
				return fmt.Errorf("bwt: the LF chain from position %d reaches $ after %d steps", c.pos+s, s)
			}
			k, r := fm.lfRank(c.row)
			c.pos--
			iv.text[c.pos] = fm.letters[k]
			c.row = int(fm.c[k] + r)
		}
		if due--; due == 0 {
			for i := range cs {
				iv.slots[cs[i].slot] = int32(cs[i].row)
				cs[i].slot--
			}
			due = rate
		}
	}
	for _, c := range cs {
		if k := c.pos / iv.stride; c.row != int(iv.anchors[k]) {
			return fmt.Errorf("bwt: the LF chain from position %d lands on row %d, not on anchor %d (row %d)", c.pos+steps, c.row, k, iv.anchors[k])
		}
	}
	return nil
}

// setSamples replaces fm's position samples and sample bitmap with
// those of the rows slots lists, slot i holding the row of position
// i·rate: one pass marks the rows, and one packs each position at its
// row's rank.
func (fm *FMIndex) setSamples(slots []int32) {
	mark := newRankBitVector(fm.n + 1)
	for _, row := range slots {
		mark.Set(int(row))
	}
	mark.Finish()
	width, words := sampleLayout(fm.n, fm.sampleRate)
	samples := make([]uint64, words)
	for i, row := range slots {
		packedPut(samples, width, mark.Rank(int(row)), uint64(i))
	}
	fm.sampleMark, fm.sampleBits, fm.samples = mark, width, samples
}
