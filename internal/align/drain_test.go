package align

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// tableWalk lists a collector's hits in table order — the unordered
// walk the ordered drain replaced, kept here as its reference: sorted
// with SortHits it is what Hits must return, hit for hit.
func tableWalk(c *Collector) []Hit {
	var out []Hit
	for idx, k := range c.keys {
		if k == 0 {
			continue
		}
		tEnd := int((k - 1) >> 32)
		qBase := int(uint32(k-1)) << laneShift
		for rem := c.used[idx]; rem != 0; rem &= rem - 1 {
			l := bits.TrailingZeros8(rem)
			out = append(out, Hit{TEnd: tEnd, QEnd: qBase + l, Score: int(c.scores[idx*laneWidth+l])})
		}
	}
	return out
}

// drainMatchesWalk checks the drain's whole contract on c's current
// contents: Hits equals the sorted table walk, is strictly ascending,
// agrees with Len, and a second drain over the now-stale scratch
// returns the same.
func drainMatchesWalk(c *Collector) bool {
	want := tableWalk(c)
	SortHits(want)
	got := c.Hits()
	if len(got) != c.Len() || !EqualHits(got, want) {
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
// origin (one block), the top of the engines' range (tEnd and qEnd near
// 2³¹−1, where the +1 key storage and the tEnd/qEnd packing are most at
// risk), and bases whose high bytes every key then shares, so the radix
// sort skips those passes.
var coordBases = []int{0, math.MaxInt32 - 300, 0x12340000, 0x00ff00, 1 << 20}

// replayHistory interprets data as a history of collector operations,
// four bytes each, on a collector and a merge source, checking the
// drain before every Reset and at the end. It covers Add, AddRun (runs
// of up to 39 cells from any lane, so they cross lanes and blocks),
// Merge, Reset followed by reuse, bursts that grow the table, and
// coordinate moves between coordBases.
func replayHistory(data []byte) bool {
	c, src := NewCollector(), NewCollector()
	target := c
	tBase, qBase := 0, 0
	clamp := func(v int) int { return min(v, math.MaxInt32) }
	run := make([]int32, 40)
	for ; len(data) >= 4; data = data[4:] {
		op, a, b, x := data[0], int(data[1]), int(data[2]), int(data[3])
		switch op % 8 {
		case 0:
			target.Add(clamp(tBase+a), clamp(qBase+b), x-100)
		case 1, 2:
			n := x % len(run)
			q0 := min(clamp(qBase+b), math.MaxInt32-n)
			for i := range run[:n] {
				run[i] = int32((x*31+i*17)%500 - 50)
			}
			target.AddRun(clamp(tBase+a), q0, run[:n])
		case 3:
			c.Merge(src)
			src.Reset()
		case 4:
			if target == c {
				target = src
			} else {
				target = c
			}
		case 5:
			if !drainMatchesWalk(c) {
				return false
			}
			c.Reset()
			if c.Len() != 0 || len(c.Hits()) != 0 {
				return false
			}
		case 6:
			tBase, qBase = coordBases[a%len(coordBases)], coordBases[b%len(coordBases)]
		case 7: // a burst of scattered runs: grows the table
			for i := 0; i < 8*x; i++ {
				target.AddRun(clamp(tBase+(i*7919+a)%4093), clamp(qBase+(i*104729+b)%1021), run[:1+i%9])
			}
		}
	}
	return drainMatchesWalk(c) && drainMatchesWalk(src)
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
// drains as the sorted table walk. The seeds are the cases the drain
// was designed around.
func FuzzCollectorOrderedDrain(f *testing.F) {
	f.Add([]byte{})                                                             // empty
	f.Add([]byte{0, 3, 5, 120, 0, 3, 2, 130})                                   // one block
	f.Add([]byte{1, 9, 6, 39, 2, 9, 30, 23})                                    // runs crossing lanes and blocks
	f.Add([]byte{6, 1, 1, 0, 1, 250, 250, 39, 0, 255, 255, 9})                  // tEnd and qEnd near 2³¹−1
	f.Add([]byte{6, 2, 0, 0, 7, 1, 1, 3, 6, 2, 2, 0, 1, 4, 4, 20})              // shared high bytes
	f.Add([]byte{7, 0, 0, 40, 5, 0, 0, 0, 0, 1, 1, 1, 5, 0, 0, 0, 1, 2, 3, 17}) // grow, Reset, reuse with stale scratch
	f.Add([]byte{4, 0, 0, 0, 7, 5, 5, 9, 4, 0, 0, 0, 1, 5, 5, 30, 3, 0, 0, 0})  // Merge
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip()
		}
		if !replayHistory(data) {
			t.Fatalf("history %v: the ordered drain is not the sorted table walk", data)
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
	largeTable := len(c.keys)

	c.Reset() // follows the large use: nothing to judge it against yet
	if len(c.keys) != largeTable {
		t.Fatalf("Reset after the large use resized the table: %d -> %d", largeTable, len(c.keys))
	}
	fill(c, small)
	if !EqualHits(c.Hits(), fresh(small)) {
		t.Fatal("small fill on the large table diverged")
	}

	c.Reset() // follows the small use: the table is ≥ 16× too big for it
	if len(c.keys) >= largeTable>>shrinkBits {
		t.Fatalf("Reset after a small use kept %d slots of a %d-slot table", len(c.keys), largeTable)
	}
	if c.ord != nil || c.tmp != nil {
		t.Fatal("shrink kept the large drain scratch")
	}
	smallTable := len(c.keys)
	for round := 0; round < 3; round++ {
		fill(c, small)
		if !EqualHits(c.Hits(), fresh(small)) {
			t.Fatalf("round %d: small fill on the shrunk table diverged", round)
		}
		c.Reset()
		if len(c.keys) != smallTable {
			t.Fatalf("round %d: steady small uses resized the table: %d -> %d", round, smallTable, len(c.keys))
		}
	}
	fill(c, large) // and it grows back
	if !EqualHits(c.Hits(), fresh(large)) {
		t.Fatal("large fill after the shrink diverged")
	}
}
