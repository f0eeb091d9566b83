package align

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// tableWalk lists a collector's hits in table order — the unordered
// walk the ordered drain replaced, kept here as a second reference that
// reads the tile layout directly: sorted with SortHits it is what Hits
// must return, hit for hit.
func tableWalk(c *Collector) []Hit {
	var out []Hit
	for i := range c.tiles {
		t := &c.tiles[i]
		if t.key == 0 {
			continue
		}
		tBase := int((t.key-1)>>32) << rowShift
		qBase := int(uint32(t.key-1)) << laneShift
		for rem := t.used; rem != 0; rem &= rem - 1 {
			cell := bits.TrailingZeros64(rem)
			out = append(out, Hit{TEnd: tBase + cell>>laneShift, QEnd: qBase + cell&laneMask, Score: int(t.scores[cell])})
		}
	}
	return out
}

// drainMatchesRef checks the drain's whole contract on c's current
// contents against ref, the map[(tEnd, qEnd)]max the same history
// built: Hits is ref sorted, strictly ascending in (TEnd, QEnd), agrees
// with Len and with the sorted table walk, and a second drain over the
// now-stale scratch returns the same.
func drainMatchesRef(c *Collector, ref map[[2]int]int) bool {
	want := make([]Hit, 0, len(ref))
	for k, sc := range ref {
		want = append(want, Hit{TEnd: k[0], QEnd: k[1], Score: sc})
	}
	SortHits(want)
	walk := tableWalk(c)
	SortHits(walk)
	got := c.Hits()
	if len(got) != c.Len() || !EqualHits(got, want) || !EqualHits(walk, want) {
		return false
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.TEnd > b.TEnd || (a.TEnd == b.TEnd && a.QEnd >= b.QEnd) {
			return false
		}
	}
	return EqualHits(c.Hits(), want)
}

// coordBases are the corners a history can move its coordinates to: the
// origin (one tile), the top of the engines' range (offset 255 is
// tEnd = qEnd = 2³¹−1, where the +1 key storage and the band/block
// packing are most at risk), and bases whose high bytes every key then
// shares, so the radix sort skips those passes.
var coordBases = []int{0, math.MaxInt32 - 255, 0x12340000, 0x00ff00, 1 << 20}

// replayHistory interprets data as a history of collector operations,
// four bytes each, on a collector and a merge source and on a map
// reference of each, checking the drain before every Reset and at the
// end. It covers Add, AddRun (runs of up to 199 cells from any lane of
// any row, so they cross lanes, tiles and — row after row — bands),
// Merge, Reset followed by reuse, bursts that grow the table, and
// coordinate moves between coordBases.
func replayHistory(data []byte) bool {
	c, src := NewCollector(), NewCollector()
	ref := map[*Collector]map[[2]int]int{c: {}, src: {}}
	target := c
	tBase, qBase := 0, 0
	clamp := func(v int) int { return min(v, math.MaxInt32) }
	addRun := func(tEnd, q0 int, run []int32) {
		target.AddRun(tEnd, q0, run)
		for i, sc := range run {
			refAdd(ref[target], tEnd, q0+i, int(sc))
		}
	}
	run := make([]int32, 200)
	for ; len(data) >= 4; data = data[4:] {
		op, a, b, x := data[0], int(data[1]), int(data[2]), int(data[3])
		switch op % 8 {
		case 0:
			target.Add(clamp(tBase+a), clamp(qBase+b), x-100)
			refAdd(ref[target], clamp(tBase+a), clamp(qBase+b), x-100)
		case 1, 2:
			n := x % len(run)
			for i := range run[:n] {
				run[i] = int32((x*31+i*17)%500 - 50)
			}
			addRun(clamp(tBase+a), min(clamp(qBase+b), math.MaxInt32+1-n), run[:n])
		case 3:
			c.Merge(src)
			for k, sc := range ref[src] {
				refAdd(ref[c], k[0], k[1], sc)
			}
			src.Reset()
			clear(ref[src])
		case 4:
			if target == c {
				target = src
			} else {
				target = c
			}
		case 5:
			if !drainMatchesRef(c, ref[c]) {
				return false
			}
			c.Reset()
			clear(ref[c])
			if c.Len() != 0 || len(c.Hits()) != 0 {
				return false
			}
		case 6:
			tBase, qBase = coordBases[a%len(coordBases)], coordBases[b%len(coordBases)]
		case 7: // a burst of scattered runs: grows the table
			for i := 0; i < 8*x; i++ {
				addRun(clamp(tBase+(i*7919+a)%4093), clamp(qBase+(i*104729+b)%1021), run[:1+i%9])
			}
		}
	}
	return drainMatchesRef(c, ref[c]) && drainMatchesRef(src, ref[src])
}

// TestCollectorOrderedDrainQuick: seeded random histories.
func TestCollectorOrderedDrainQuick(t *testing.T) {
	history := func(seed int64, n uint16) bool {
		data := make([]byte, n%512)
		rand.New(rand.NewSource(seed)).Read(data)
		return replayHistory(data)
	}
	if err := quick.Check(history, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(77))}); err != nil {
		t.Fatal(err)
	}
}

// FuzzCollectorOrderedDrain: any Add/AddRun/Merge/Reset/grow history
// drains as its map reference, sorted. The seeds are the cases the
// drain and the tile layout were designed around.
func FuzzCollectorOrderedDrain(f *testing.F) {
	f.Add([]byte{})                                                              // empty
	f.Add([]byte{0, 3, 5, 120, 0, 3, 2, 130})                                    // one tile
	f.Add([]byte{1, 9, 6, 39, 2, 9, 30, 23})                                     // runs crossing lanes and tiles
	f.Add([]byte{6, 1, 1, 0, 1, 250, 250, 39, 0, 255, 255, 9})                   // tEnd and qEnd near 2³¹−1
	f.Add([]byte{6, 2, 0, 0, 7, 1, 1, 3, 6, 2, 2, 0, 1, 4, 4, 20})               // shared high bytes
	f.Add([]byte{7, 0, 0, 40, 5, 0, 0, 0, 0, 1, 1, 1, 5, 0, 0, 0, 1, 2, 3, 17})  // grow, Reset, reuse with stale scratch
	f.Add([]byte{4, 0, 0, 0, 7, 5, 5, 9, 4, 0, 0, 0, 1, 5, 5, 30, 3, 0, 0, 0})   // Merge
	f.Add([]byte{1, 2, 12, 8, 1, 2, 15, 1, 1, 2, 16, 1})                         // a run over a tile's lane edge, qEnd 15→16
	f.Add([]byte{1, 3, 5, 20, 1, 4, 6, 20, 0, 3, 40, 7, 0, 4, 0, 7})             // rows either side of a band edge, tEnd 3→4
	f.Add([]byte{1, 6, 9, 199, 2, 7, 10, 70})                                    // runs longer than a tile holds cells
	f.Add([]byte{6, 1, 1, 0, 0, 255, 255, 200, 1, 255, 255, 1, 1, 255, 200, 56}) // tEnd = qEnd = 2³¹−1 exactly
	f.Add([]byte{                                                                // Merge of partially overlapping tiles, three sources one after another
		1, 1, 4, 20, 4, 0, 0, 0, 1, 2, 10, 20, 1, 1, 10, 10, 3, 0, 0, 0,
		1, 1, 0, 6, 1, 3, 30, 9, 3, 0, 0, 0, 0, 2, 12, 250, 1, 0, 20, 30, 3, 0, 0, 0})
	f.Add([]byte{1, 5, 0, 16, 1, 5, 36, 4, 1, 5, 0, 48})                         // one run meeting a full, an empty and a mixed tile row
	f.Add([]byte{7, 0, 0, 255, 5, 0, 0, 0, 0, 1, 1, 1, 5, 0, 0, 0, 1, 2, 3, 17}) // Reset after a use far over 16× smaller
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip()
		}
		if !replayHistory(data) {
			t.Fatalf("history %v: the ordered drain is not the sorted map reference", data)
		}
	})
}

// TestCollectorSkipsSharedBytes pins the pass selection the drain's
// speed rests on: keys that differ in one byte get one radix pass's
// worth of work, and keys that differ only in their top byte still sort.
func TestCollectorSkipsSharedBytes(t *testing.T) {
	c := NewCollector()
	for _, tEnd := range []int{0x7f000000, 0x01000000, 0x40000000, 0x02000000} {
		c.Add(tEnd, 8, tEnd>>24)
	}
	want := []Hit{{0x01000000, 8, 1}, {0x02000000, 8, 2}, {0x40000000, 8, 0x40}, {0x7f000000, 8, 0x7f}}
	if got := c.Hits(); !EqualHits(got, want) {
		t.Fatalf("top-byte-only keys drained as %v, want %v", got, want)
	}
}

// TestCollectorResetShrinks is the shrink rule: one huge answer must
// not leave a pooled collector clearing a huge table for every small
// query after it. The table survives a Reset that follows a use of
// comparable size, is dropped for a fitting one by the Reset that
// follows a far smaller use, and hits are the same throughout.
func TestCollectorResetShrinks(t *testing.T) {
	run := make([]int32, 24)
	for i := range run {
		run[i] = int32(30 + i)
	}
	fill := func(c *Collector, rows int) {
		for tEnd := 0; tEnd < rows; tEnd++ {
			c.AddRun(tEnd, tEnd%11, run)
		}
	}
	fresh := func(rows int) []Hit {
		c := NewCollector()
		fill(c, rows)
		return c.Hits()
	}
	const large, small = 20_000, 5
	c := NewCollector()
	fill(c, large)
	if !EqualHits(c.Hits(), fresh(large)) {
		t.Fatal("large fill diverged")
	}
	largeTable := len(c.tiles)

	c.Reset() // follows the large use: nothing to judge it against yet
	if len(c.tiles) != largeTable {
		t.Fatalf("Reset after the large use resized the table: %d -> %d", largeTable, len(c.tiles))
	}
	fill(c, small)
	if !EqualHits(c.Hits(), fresh(small)) {
		t.Fatal("small fill on the large table diverged")
	}

	c.Reset() // follows the small use: the table is ≥ 16× too big for it
	if len(c.tiles) >= largeTable>>shrinkBits {
		t.Fatalf("Reset after a small use kept %d slots of a %d-slot table", len(c.tiles), largeTable)
	}
	if c.ord != nil || c.tmp != nil {
		t.Fatal("shrink kept the large drain scratch")
	}
	smallTable := len(c.tiles)
	for round := 0; round < 3; round++ {
		fill(c, small)
		if !EqualHits(c.Hits(), fresh(small)) {
			t.Fatalf("round %d: small fill on the shrunk table diverged", round)
		}
		c.Reset()
		if len(c.tiles) != smallTable {
			t.Fatalf("round %d: steady small uses resized the table: %d -> %d", round, smallTable, len(c.tiles))
		}
	}
	fill(c, large) // and it grows back
	if !EqualHits(c.Hits(), fresh(large)) {
		t.Fatal("large fill after the shrink diverged")
	}

	// The rule counts tiles, not hits: on the table the large fill left,
	// a use 16× smaller in tiles shrinks it to a sixteenth, and the same
	// number of hits packed 64 to a tile shrinks it to what those few
	// tiles need.
	slotsFor := func(tiles int) int {
		slots := 1 << collectorMinBits
		for tiles+1 > slots*5/8 {
			slots *= 2
		}
		return slots
	}
	const cells = tileRows * tileLanes
	hits := len(c.tiles)>>shrinkBits*5/8 - 1 // one under what a table 16× smaller holds
	for _, tc := range []struct {
		name      string
		perTile   int
		wantSlots int
	}{{"one hit per tile", 1, len(c.tiles) >> shrinkBits}, {"dense", cells, slotsFor((hits + cells - 1) / cells)}} {
		c.Reset()
		fill(c, large)
		c.Reset()
		for i := 0; i < hits; i++ {
			tile, cell := i/tc.perTile, i%tc.perTile
			c.Add(tile*tileRows+cell/tileLanes, cell%tileLanes, 40)
		}
		if c.Len() != hits {
			t.Fatalf("%s: %d hits recorded, want %d", tc.name, c.Len(), hits)
		}
		c.Reset()
		if len(c.tiles) != tc.wantSlots {
			t.Fatalf("%s: Reset after %d hits left %d slots, want %d", tc.name, hits, len(c.tiles), tc.wantSlots)
		}
	}
}
