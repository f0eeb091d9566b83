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
// The store is a linear-probing open-addressing table of matrix tiles:
// one slot covers tileRows consecutive tEnds × tileLanes consecutive
// qEnds of the hit matrix, key, occupancy word and scores side by side.
// Emission is row-run shaped and walks down the matrix — a surviving
// band row yields a run of consecutive qEnds at one tEnd, the next row
// the same columns shifted by one at tEnd+1 — so AddRun pays one
// Fibonacci-hash probe per tileLanes columns and finds the tiles of the
// rows above it still in cache; single-cell Add costs one probe. Keys
// are stored +1 so zero marks an empty slot.
//
// The tile key is order-isomorphic to (tEnd band, qEnd block): it packs
// tEnd>>rowShift above qEnd>>laneShift, the +1 is monotone and cannot
// carry into the upper half, and rows and lanes ascend inside a tile.
// So hits leave the table in (TEnd, QEnd) order by sorting tile keys,
// not hits — see Drain, the only way out.
type Collector struct {
	tiles []tile
	n     int // occupied slots (tiles)
	hits  int // distinct (tEnd, qEnd) pairs
	shift uint

	// Drain scratch, retained so a warm drain allocates nothing: the
	// occupied slots in key order, and the radix sort's second buffer.
	ord, tmp []tileRef
}

// tile is one table slot. Bit r<<laneShift|l of used marks cell (row r,
// lane l), whose score is scores[r<<laneShift|l]; scores of unmarked
// cells are stale.
type tile struct {
	key    uint64
	used   uint64
	scores [tileRows * tileLanes]int32
}

// The tile geometry, 4 rows × 16 lanes, is measured, not guessed
// (BenchmarkCollectorReplay): every 64-cell shape serves a revisiting
// emission stream equally well, but on isolated runs, which reuse no
// row, the taller 8×8 costs twice what this one does.
const (
	rowShift  = 2
	laneShift = 4
	tileRows  = 1 << rowShift
	tileLanes = 1 << laneShift
	rowMask   = tileRows - 1
	laneMask  = tileLanes - 1
)

// collectorMinBits sizes an empty collector: 8 tiles, 2.2 KB. Every lane
// of every pooled session holds one, most of them idle.
const collectorMinBits = 3

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	c := &Collector{}
	c.init(collectorMinBits)
	return c
}

func (c *Collector) init(bits uint) {
	c.tiles = make([]tile, 1<<bits)
	c.shift = 64 - bits
	c.n = 0
	c.hits = 0
}

// tileKey packs (tEnd band, qEnd block). Injective for the engines'
// coordinate ranges (0 ≤ tEnd, qEnd < 2^31), and +1 storage cannot
// carry into the tEnd half.
func tileKey(tEnd, qEnd int) uint64 {
	return uint64(uint32(tEnd)>>rowShift)<<32 | uint64(uint32(qEnd)>>laneShift)
}

// fibMix is 2^64/φ, the Fibonacci-hashing multiplier: consecutive keys
// (adjacent matrix tiles are the common case) scatter across the
// table.
const fibMix = 0x9E3779B97F4A7C15

// slot returns the tile for key k (stored +1), claiming an empty slot
// if the tile is new. Callers must reserve first so the probe never
// needs to grow mid-scan.
func (c *Collector) slot(k uint64) *tile {
	mask := uint64(len(c.tiles) - 1)
	i := (k * fibMix) >> c.shift
	for {
		t := &c.tiles[i]
		if t.key == k {
			return t
		}
		if t.key == 0 {
			t.key = k
			c.n++
			return t
		}
		i = (i + 1) & mask
	}
}

// reserve grows the table until tiles more inserts stay under the 5/8
// load factor.
func (c *Collector) reserve(tiles int) {
	for c.n+tiles > len(c.tiles)*5/8 {
		c.grow()
	}
}

// Add records a hit, keeping the best score per end pair.
func (c *Collector) Add(tEnd, qEnd, score int) {
	c.reserve(1)
	t := c.slot(tileKey(tEnd, qEnd) + 1)
	c.hits += t.put((tEnd&rowMask)<<laneShift|qEnd&laneMask, int32(score))
}

// put max-merges one cell into the tile and returns 1 if it was new.
func (t *tile) put(cell int, score int32) int {
	bit := uint64(1) << cell
	if t.used&bit != 0 {
		t.scores[cell] = max(t.scores[cell], score)
		return 0
	}
	t.used |= bit
	t.scores[cell] = score
	return 1
}

// AddRun records a run of hits at one tEnd covering consecutive qEnds
// qEnd0, qEnd0+1, ..., qEnd0+len(scores)-1, max-merging like Add. One
// table probe per tile touched (≤ tileLanes cells each), and one
// reservation for all of them: the table may not grow between a run's
// probes anyway. Each tile row merges by what is already there: all of
// it (a revisit, the common case at 13 emissions per hit) is a
// branch-free max, none of it a copy, and only a mix goes cell by cell.
func (c *Collector) AddRun(tEnd, qEnd0 int, scores []int32) {
	c.reserve((qEnd0&laneMask + len(scores) + laneMask) >> laneShift)
	row := (tEnd & rowMask) << laneShift
	for len(scores) > 0 {
		lane := qEnd0 & laneMask
		src := scores[:min(tileLanes-lane, len(scores))]
		t := c.slot(tileKey(tEnd, qEnd0) + 1)
		off := row | lane
		dst := t.scores[off:][:len(src)]
		mask := (uint64(1)<<len(src) - 1) << off
		switch have := t.used & mask; have {
		case mask:
			for i, sc := range src {
				dst[i] = max(dst[i], sc)
			}
		case 0:
			copy(dst, src)
			c.hits += len(src)
		default:
			for i, sc := range src {
				if have>>(off+i)&1 == 0 || sc > dst[i] {
					dst[i] = sc
				}
			}
			c.hits += len(src) - bits.OnesCount64(have)
		}
		t.used |= mask
		qEnd0 += len(src)
		scores = scores[len(src):]
	}
}

// grow doubles the table, moving every tile.
func (c *Collector) grow() {
	old, oldHits := c.tiles, c.hits
	c.init(65 - c.shift)
	c.hits = oldHits
	mask := uint64(len(c.tiles) - 1)
	for idx := range old {
		k := old[idx].key
		if k == 0 {
			continue
		}
		i := (k * fibMix) >> c.shift
		for c.tiles[i].key != 0 {
			i = (i + 1) & mask
		}
		c.tiles[i] = old[idx]
		c.n++
	}
}

// Merge folds another collector's hits into c, keeping the best score
// per end pair. It is the reduction step of the parallel search
// scheduler: per-worker collectors merge into the caller's, and
// because the per-pair max is commutative the result is independent of
// worker scheduling. One probe per source tile.
func (c *Collector) Merge(o *Collector) {
	for idx := range o.tiles {
		ot := &o.tiles[idx]
		if ot.key == 0 {
			continue
		}
		c.reserve(1)
		t := c.slot(ot.key)
		for rem := ot.used; rem != 0; rem &= rem - 1 {
			cell := bits.TrailingZeros64(rem)
			c.hits += t.put(cell, ot.scores[cell])
		}
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
// over the size those tiles need is dropped, drain scratch included,
// for one of that size. Clearing touches key and used only, one cache
// line of a tile's five.
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
	for i := range c.tiles {
		c.tiles[i].key, c.tiles[i].used = 0, 0
	}
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
// by tile key, which puts each band of tileRows tEnds together with its
// tiles ascending in qEnd (see Collector), and each band is walked row
// by row across its tiles, lanes ascending. Consumers that route hits
// by coordinate — the store gather's per-member ranges — therefore see
// each destination's hits contiguously and already sorted. The
// collector keeps its contents (Reset empties it); fn must not call
// back into it.
func (c *Collector) Drain(fn func(tEnd, qEnd, score int)) {
	for refs := c.ordered(); len(refs) > 0; {
		band, n := refs[0].key>>32, 1
		for n < len(refs) && refs[n].key>>32 == band {
			n++
		}
		for row := 0; row < tileRows*tileLanes; row += tileLanes {
			tEnd := int(band)<<rowShift | row>>laneShift
			for _, r := range refs[:n] {
				t := &c.tiles[r.slot]
				qBase := int(uint32(r.key-1)) << laneShift
				for rem := t.used >> row & (1<<tileLanes - 1); rem != 0; rem &= rem - 1 {
					l := bits.TrailingZeros64(rem)
					fn(tEnd, qBase+l, int(t.scores[row+l]))
				}
			}
		}
		refs = refs[n:]
	}
}

// tileRef is one occupied table slot during a drain.
type tileRef struct {
	key  uint64 // the stored (+1) tile key
	slot uint32
}

// ordered returns the occupied slots sorted by tile key: an LSD radix
// sort, one stable counting pass per key byte. Only bytes on which the
// keys actually differ get a pass — the OR and the AND of all keys
// disagree exactly on the varying bits — and real tables vary in few:
// the tEnd band below the text length, the qEnd block below a query's,
// typically 3 of the 8. The result aliases the retained scratch and is
// valid until the next call.
func (c *Collector) ordered() []tileRef {
	if c.n == 0 {
		return nil
	}
	if cap(c.ord) < c.n {
		// Sized with the table, whose load factor bounds n: the scratch
		// is reallocated only when the table has grown.
		c.ord = make([]tileRef, len(c.tiles)*5/8)
		c.tmp = make([]tileRef, len(c.tiles)*5/8)
	}
	a, b := c.ord[:0], c.tmp[:c.n]
	or, and := uint64(0), ^uint64(0)
	for i := range c.tiles {
		if k := c.tiles[i].key; k != 0 {
			a = append(a, tileRef{key: k, slot: uint32(i)})
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
