package bwt

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// Inversion: the BWT alone determines the text, so a persisted index
// carries no text and a load rebuilds it. One LF chain starts at each
// position sample (and one at row 0, the $ suffix at position n) and
// walks back to the next lower sampled position, writing a letter per
// step. Every chain must land on exactly that sample. Together the
// checks below prove the whole index: the chains join into one walk of
// n steps from row 0 to the sentinel row, so LF is a single cycle of
// all n+1 rows — the BWT is the BWT of the rebuilt text — and every
// sampled row holds its true text position, so Position and Locate
// answer exactly.

// invertChunk is how many chains one sweep steps together: the chains
// are independent, so their rank-core visits overlap instead of
// waiting on each other.
const invertChunk = 32

// invertSplitChars is the fewest characters per worker for which an
// inversion splits its chains across GOMAXPROCS goroutines.
const invertSplitChars = 1 << 17

// invertChain is one LF walk of an inversion: its current row and the
// text position of the suffix at that row.
type invertChain struct{ row, pos int }

// Invert rebuilds the indexed text from the BWT and checks the index
// against every position sample. It fails when two rows hold the same
// sample, a sample of position 0 or n sits on a row other than the
// sentinel row or row 0, or a chain reaches the sentinel row ($) before
// its sample or lands anywhere but on the sample of the next lower
// sampled position. The only memory it allocates is the text.
func (fm *FMIndex) Invert() ([]byte, error) {
	n, rate := fm.n, fm.sampleRate
	text := make([]byte, n)
	if err := fm.markSamples(text); err != nil {
		return nil, err
	}
	if n > 0 {
		// The $ suffix's chain: the letters after the last sample.
		top := [1]invertChain{{row: 0, pos: n}}
		if err := fm.walkChains(text, top[:], n-(n-1)/rate*rate); err != nil {
			return nil, err
		}
	}
	// The chains write disjoint stretches of the text (markSamples saw
	// every sample once), so workers may split them by row.
	words := len(fm.sampleMark.words)
	workers := max(1, min(runtime.GOMAXPROCS(0), n/invertSplitChars))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = fm.invertWords(text, words*w/workers, words*(w+1)/workers)
		}()
	}
	errs[0] = fm.invertWords(text, 0, words/workers)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return text, nil
}

// markSamples checks where the samples of positions 0 and n sit and
// that no position is sampled twice, marking in the zeroed text the
// first letter each chain writes.
func (fm *FMIndex) markSamples(text []byte) error {
	n, j := fm.n, 0
	for wi, w := range fm.sampleMark.words {
		for ; w != 0; w &= w - 1 {
			row := wi*64 + bits.TrailingZeros64(w)
			p := fm.sample(j)
			j++
			switch {
			case row == 0 || p == n:
				if row != 0 || p != n {
					return fmt.Errorf("bwt: row %d holds the sample of position %d; only row 0 holds position n = %d", row, p, n)
				}
			case p == 0:
				if row != fm.sentinelRow {
					return fmt.Errorf("bwt: row %d holds the sample of position 0; the sentinel row is %d", row, fm.sentinelRow)
				}
			case text[p-1] != 0:
				return fmt.Errorf("bwt: two rows hold the sample of position %d", p)
			default:
				text[p-1] = 1
			}
		}
	}
	return nil
}

// invertWords walks the chains that start at the sampled rows of the
// sample bitmap's words [lo, hi), invertChunk at a time.
func (fm *FMIndex) invertWords(text []byte, lo, hi int) error {
	var chains [invertChunk]invertChain
	k, j := 0, fm.sampleMark.Rank(64*lo) // chains pending, next sample
	for wi, w := range fm.sampleMark.words[lo:hi] {
		for ; w != 0; w &= w - 1 {
			row := (lo+wi)*64 + bits.TrailingZeros64(w)
			p := fm.sample(j)
			j++
			if row == 0 || p == 0 {
				continue // the $ suffix's chain, or the sentinel row
			}
			chains[k] = invertChain{row: row, pos: p}
			if k++; k == invertChunk {
				if err := fm.walkChains(text, chains[:], fm.sampleRate); err != nil {
					return err
				}
				k = 0
			}
		}
	}
	return fm.walkChains(text, chains[:k], fm.sampleRate)
}

// walkChains steps every chain of cs steps times, interleaved, writing
// the letter before each suffix at its text position, then checks that
// each chain landed on the sample of the position it reached.
func (fm *FMIndex) walkChains(text []byte, cs []invertChain, steps int) error {
	for s := 0; s < steps; s++ {
		for i := range cs {
			c := &cs[i]
			if c.row == fm.sentinelRow {
				return fmt.Errorf("bwt: the LF chain from position %d reaches $ after %d steps", c.pos+s, s)
			}
			k, r := fm.lfRank(c.row)
			c.pos--
			text[c.pos] = fm.letters[k]
			c.row = int(fm.c[k] + r)
		}
	}
	for _, c := range cs {
		if !fm.sampleMark.Get(c.row) || fm.sample(fm.sampleMark.Rank(c.row)) != c.pos {
			return fmt.Errorf("bwt: the LF chain from position %d lands on row %d, not on the sample of position %d", c.pos+steps, c.row, c.pos)
		}
	}
	return nil
}
