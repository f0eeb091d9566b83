package align

import (
	"math/bits"
	"slices"
)

// Hit is one local-alignment result: the paper's A(i, j) restricted to
// scores at or above the threshold. TEnd and QEnd are 0-based
// *inclusive* end positions in the text and the query; Score is the
// best score over all alignments of substrings ending exactly there.
type Hit struct {
	TEnd  int
	QEnd  int
	Score int
}

// Collector deduplicates hits by end-position pair, keeping the
// maximum score, which is exactly the max-merge over matrices that
// Algorithm 1 (BASIC) performs in lines 6-10.
//
// The store is a linear-probing open-addressing table on a packed
// (tEnd, qEnd-block) key, block-granular: each slot covers laneWidth
// consecutive qEnd positions of one tEnd (a lane bitmask marks which
// are present). Emission is row-run shaped — a surviving band row
// yields a run of consecutive qEnds at one tEnd — so AddRun pays one
// Fibonacci-hash probe per block (≤ laneWidth cells) instead of one
// per cell, and single-cell Add costs the same one probe it always
// did. Keys are stored +1 so zero marks an empty slot.
//
// The block key is order-isomorphic to the canonical hit order: it
// packs tEnd above the qEnd block index, the +1 is monotone and cannot
// carry into the tEnd half, and the lanes of a block ascend in qEnd. So
// hits leave the table in (TEnd, QEnd) order by sorting block keys, not
// hits — see Drain, the only way out.
type Collector struct {
	keys   []uint64
	used   []uint8 // per-slot lane occupancy bitmask
	scores []int32 // laneWidth lanes per slot
	n      int     // occupied slots (blocks)
	hits   int     // distinct (tEnd, qEnd) pairs
	shift  uint

	// Drain scratch, retained so a warm drain allocates nothing: the
	// occupied slots in key order, and the radix sort's second buffer.
	ord, tmp []blockRef
}

// laneShift sets the block granularity: 1<<laneShift consecutive qEnd
// positions share one table slot. 8 lanes fit the used bitmask in one
// byte and cover typical emission-run lengths with one probe.
const (
	laneShift = 3
	laneWidth = 1 << laneShift
	laneMask  = laneWidth - 1
)

const collectorMinBits = 6

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	c := &Collector{}
	c.init(collectorMinBits)
	return c
}

func (c *Collector) init(bits uint) {
	c.keys = make([]uint64, 1<<bits)
	c.used = make([]uint8, 1<<bits)
	c.scores = make([]int32, (1<<bits)*laneWidth)
	c.shift = 64 - bits
	c.n = 0
	c.hits = 0
}

// blockKey packs (tEnd, qEnd block index). Injective for the engines'
// coordinate ranges (0 ≤ tEnd, qEnd < 2^31), and +1 storage cannot
// carry into the tEnd half.
func blockKey(tEnd, qEnd int) uint64 {
	return uint64(uint32(tEnd))<<32 | uint64(uint32(qEnd)>>laneShift)
}

// fibMix is 2^64/φ, the Fibonacci-hashing multiplier: consecutive keys
// (adjacent matrix blocks are the common case) scatter across the
// table.
const fibMix = 0x9E3779B97F4A7C15

// slot returns the table index for block key k (stored +1), claiming
// an empty slot if the block is new. Callers must reserve first so the
// probe never needs to grow mid-scan.
func (c *Collector) slot(k uint64) int {
	mask := uint64(len(c.keys) - 1)
	i := (k * fibMix) >> c.shift
	for {
		stored := c.keys[i]
		if stored == k {
			return int(i)
		}
		if stored == 0 {
			c.keys[i] = k
			c.n++
			return int(i)
		}
		i = (i + 1) & mask
	}
}

// reserve grows the table until blocks more block inserts stay under
// the 5/8 load factor.
func (c *Collector) reserve(blocks int) {
	for c.n+blocks > len(c.keys)*5/8 {
		c.grow()
	}
}

// Add records a hit, keeping the best score per end pair.
func (c *Collector) Add(tEnd, qEnd, score int) {
	c.reserve(1)
	i := c.slot(blockKey(tEnd, qEnd) + 1)
	lane := qEnd & laneMask
	bit := uint8(1) << lane
	si := i*laneWidth + lane
	if c.used[i]&bit != 0 {
		if int32(score) > c.scores[si] {
			c.scores[si] = int32(score)
		}
		return
	}
	c.used[i] |= bit
	c.scores[si] = int32(score)
	c.hits++
}

// AddRun records a run of hits at one tEnd covering consecutive qEnds
// qEnd0, qEnd0+1, ..., qEnd0+len(scores)-1, max-merging like Add. One
// table probe per block touched (≤ laneWidth cells each), and one
// reservation for all of them: the table may not grow between a run's
// probes anyway — the batched fast path of the emission overhaul.
func (c *Collector) AddRun(tEnd, qEnd0 int, scores []int32) {
	c.reserve((qEnd0&laneMask + len(scores) + laneMask) >> laneShift)
	for len(scores) > 0 {
		lane := qEnd0 & laneMask
		span := laneWidth - lane
		if span > len(scores) {
			span = len(scores)
		}
		i := c.slot(blockKey(tEnd, qEnd0) + 1)
		base := i * laneWidth
		u := c.used[i]
		for m := 0; m < span; m++ {
			l := lane + m
			bit := uint8(1) << l
			sc := scores[m]
			if u&bit != 0 {
				if sc > c.scores[base+l] {
					c.scores[base+l] = sc
				}
			} else {
				u |= bit
				c.scores[base+l] = sc
				c.hits++
			}
		}
		c.used[i] = u
		qEnd0 += span
		scores = scores[span:]
	}
}

// grow doubles the table, reinserting every block.
func (c *Collector) grow() {
	oldKeys, oldUsed, oldScores := c.keys, c.used, c.scores
	oldHits := c.hits
	bits := 65 - c.shift
	c.init(bits)
	c.hits = oldHits
	mask := uint64(len(c.keys) - 1)
	for idx, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := (k * fibMix) >> c.shift
		for c.keys[i] != 0 {
			i = (i + 1) & mask
		}
		c.keys[i] = k
		c.used[i] = oldUsed[idx]
		copy(c.scores[int(i)*laneWidth:(int(i)+1)*laneWidth], oldScores[idx*laneWidth:(idx+1)*laneWidth])
		c.n++
	}
}

// Merge folds another collector's hits into c, keeping the best score
// per end pair. It is the reduction step of the parallel search
// scheduler: per-worker collectors merge into the caller's, and
// because the per-pair max is commutative the result is independent of
// worker scheduling. One probe per source block.
func (c *Collector) Merge(o *Collector) {
	for idx, k := range o.keys {
		if k == 0 {
			continue
		}
		ou := o.used[idx]
		if ou == 0 {
			continue
		}
		c.reserve(1)
		i := c.slot(k)
		base, obase := i*laneWidth, idx*laneWidth
		u := c.used[i]
		for rem := ou; rem != 0; rem &= rem - 1 {
			l := bits.TrailingZeros8(rem)
			bit := uint8(1) << l
			sc := o.scores[obase+l]
			if u&bit != 0 {
				if sc > c.scores[base+l] {
					c.scores[base+l] = sc
				}
			} else {
				u |= bit
				c.scores[base+l] = sc
				c.hits++
			}
		}
		c.used[i] = u
	}
}

// shrinkBits is the shrink rule's fixed ratio: Reset re-inits the table
// at the size the finished use would have grown it to when the table is
// at least 1<<shrinkBits times that size.
const shrinkBits = 4

// Reset empties the collector for the next use. The table capacity is
// kept, so a reused collector (a serving session answering query after
// query) stays warm-sized and its steady-state Adds never grow the
// table — unless the use just finished occupied so little of it that
// clearing it, which is O(capacity), would tax every small query that
// follows one huge answer on a pooled session: a table 16× or more
// over the size those blocks need is dropped, drain scratch included,
// for one of that size.
func (c *Collector) Reset() {
	fit := uint(collectorMinBits)
	for c.n+1 > (1<<fit)*5/8 {
		fit++
	}
	if 64-c.shift >= fit+shrinkBits {
		c.init(fit)
		c.ord, c.tmp = nil, nil
		return
	}
	clear(c.keys)
	clear(c.used)
	c.n = 0
	c.hits = 0
}

// ShardedCollector is a set of per-worker collectors: the parallel
// fork-family scheduler gives each worker its own open-addressing
// table so hit recording never contends, and the shards merge into one
// result table afterwards by table scan. A session keeps one across
// queries so the per-worker tables, like every other per-query
// structure, are allocated once and re-armed.
type ShardedCollector struct {
	shards []*Collector
}

// NewSharded returns a sharded collector with n shards.
func NewSharded(n int) *ShardedCollector {
	sc := &ShardedCollector{}
	sc.Resize(n)
	return sc
}

// Resize ensures at least n shards exist, keeping existing ones (and
// their warm table capacity).
func (sc *ShardedCollector) Resize(n int) {
	for len(sc.shards) < n {
		sc.shards = append(sc.shards, NewCollector())
	}
}

// Shard returns shard i. The caller must have Resized to at least i+1.
func (sc *ShardedCollector) Shard(i int) *Collector { return sc.shards[i] }

// ResetAll empties every shard, keeping capacity.
func (sc *ShardedCollector) ResetAll() {
	for _, s := range sc.shards {
		s.Reset()
	}
}

// MergeInto folds the first n shards into c by table scan. The merge
// is a commutative per-pair max, so the result is independent of which
// worker recorded which hit.
func (sc *ShardedCollector) MergeInto(c *Collector, n int) {
	for _, s := range sc.shards[:n] {
		c.Merge(s)
	}
}

// Len returns the number of distinct end pairs recorded.
func (c *Collector) Len() int { return c.hits }

// Hits returns all recorded hits sorted by (TEnd, QEnd): Drain into an
// exactly-sized slice, the one allocation of a warm drain.
func (c *Collector) Hits() []Hit {
	out := make([]Hit, 0, c.hits)
	c.Drain(func(tEnd, qEnd, score int) {
		out = append(out, Hit{TEnd: tEnd, QEnd: qEnd, Score: score})
	})
	return out
}

// Drain calls fn for every recorded hit in ascending (TEnd, QEnd)
// order without comparing a single hit: the occupied slots are sorted
// by block key, which is that order (see Collector), and each block's
// lanes are walked in ascending qEnd. Consumers that route hits by
// coordinate — the store gather's per-member ranges — therefore see
// each destination's hits contiguously and already sorted. The
// collector keeps its contents (Reset empties it); fn must not call
// back into it.
func (c *Collector) Drain(fn func(tEnd, qEnd, score int)) {
	for _, r := range c.ordered() {
		kk := r.key - 1
		tEnd := int(kk >> 32)
		qBase := int(uint32(kk)) << laneShift
		base := int(r.slot) * laneWidth
		for rem := r.used; rem != 0; rem &= rem - 1 {
			l := bits.TrailingZeros8(rem)
			fn(tEnd, qBase+l, int(c.scores[base+l]))
		}
	}
}

// blockRef is one occupied table slot during a drain. It carries the
// lane mask along so the ordered walk's only random access is the
// block's scores.
type blockRef struct {
	key  uint64 // the stored (+1) block key
	slot uint32
	used uint8
}

// ordered returns the occupied slots sorted by block key: an LSD radix
// sort, one stable counting pass per key byte. Only bytes on which the
// keys actually differ get a pass — the OR and the AND of all keys
// disagree exactly on the varying bits — and real tables vary in few:
// tEnd below the text length, the qEnd block below a query's, typically
// 3–4 of the 8. The result aliases the retained scratch and is valid
// until the next call.
func (c *Collector) ordered() []blockRef {
	if c.n == 0 {
		return nil
	}
	if cap(c.ord) < c.n {
		// Sized with the table, whose load factor bounds n: the scratch
		// is reallocated only when the table has grown.
		c.ord = make([]blockRef, len(c.keys)*5/8)
		c.tmp = make([]blockRef, len(c.keys)*5/8)
	}
	a, b := c.ord[:0], c.tmp[:c.n]
	or, and := uint64(0), ^uint64(0)
	for i, k := range c.keys {
		if k != 0 {
			a = append(a, blockRef{key: k, slot: uint32(i), used: c.used[i]})
			or |= k
			and &= k
		}
	}
	for shift, varying := uint(0), or^and; varying>>shift != 0; shift += 8 {
		if varying>>shift&0xff == 0 {
			continue
		}
		var next [256]int // per digit: count, then the next output index
		for i := range a {
			next[a[i].key>>shift&0xff]++
		}
		sum := 0
		for d, n := range next {
			next[d] = sum
			sum += n
		}
		for i := range a {
			d := a[i].key >> shift & 0xff
			b[next[d]] = a[i]
			next[d]++
		}
		a, b = b, a
	}
	c.ord, c.tmp = a, b
	return a
}

// SortHits sorts a hit slice by (TEnd, QEnd), the canonical order used
// when comparing engines.
func SortHits(hs []Hit) {
	slices.SortFunc(hs, func(a, b Hit) int {
		if a.TEnd != b.TEnd {
			return a.TEnd - b.TEnd
		}
		return a.QEnd - b.QEnd
	})
}

// EqualHits reports whether two sorted hit slices are identical.
func EqualHits(a, b []Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
