package align

import (
	"math/rand"
	"slices"
	"testing"
)

// refAdd mirrors collector semantics on a plain map.
func refAdd(ref map[[2]int]int, tEnd, qEnd, score int) {
	k := [2]int{tEnd, qEnd}
	if old, ok := ref[k]; !ok || score > old {
		ref[k] = score
	}
}

func checkAgainstRef(t *testing.T, c *Collector, ref map[[2]int]int) {
	t.Helper()
	if c.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(ref))
	}
	for _, h := range c.Hits() {
		want, ok := ref[[2]int{h.TEnd, h.QEnd}]
		if !ok {
			t.Fatalf("unexpected hit %+v", h)
		}
		if h.Score != want {
			t.Fatalf("hit (%d,%d) score %d, want %d", h.TEnd, h.QEnd, h.Score, want)
		}
	}
}

// TestCollectorAddRandomized drives single-cell Add across tile
// boundaries, duplicate pairs, and table growth, against a map oracle.
func TestCollectorAddRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewCollector()
	ref := map[[2]int]int{}
	for i := 0; i < 20_000; i++ {
		tEnd, qEnd := rng.Intn(500), rng.Intn(300)
		score := rng.Intn(1000) - 100
		c.Add(tEnd, qEnd, score)
		refAdd(ref, tEnd, qEnd, score)
	}
	checkAgainstRef(t, c, ref)
}

// TestCollectorAddRun checks the batched run path against per-cell
// Add semantics: arbitrary run starts (any row, any lane offset), runs
// spanning multiple tiles, overlapping/duplicate runs, and negative
// scores.
func TestCollectorAddRun(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := NewCollector()
	ref := map[[2]int]int{}
	for i := 0; i < 5_000; i++ {
		tEnd := rng.Intn(200)
		qEnd0 := rng.Intn(100)
		n := 1 + rng.Intn(30)
		scores := make([]int32, n)
		for k := range scores {
			scores[k] = int32(rng.Intn(1000) - 100)
			refAdd(ref, tEnd, qEnd0+k, int(scores[k]))
		}
		c.AddRun(tEnd, qEnd0, scores)
	}
	// Interleave single adds over the same coordinate space.
	for i := 0; i < 5_000; i++ {
		tEnd, qEnd := rng.Intn(200), rng.Intn(130)
		score := rng.Intn(1000) - 100
		c.Add(tEnd, qEnd, score)
		refAdd(ref, tEnd, qEnd, score)
	}
	checkAgainstRef(t, c, ref)
}

// TestCollectorAddRunEmpty: a zero-length run is a no-op.
func TestCollectorAddRunEmpty(t *testing.T) {
	c := NewCollector()
	c.AddRun(5, 7, nil)
	if c.Len() != 0 {
		t.Fatalf("empty run recorded %d hits", c.Len())
	}
}

// TestCollectorMergeBlocks merges 1, 2 and 3 lanes' collectors whose
// tiles partially overlap — sparse cells and short runs over a few
// hundred tiles, so most tiles meet a source tile holding other cells,
// some of the same cells at other scores, or nothing — into a
// destination with content of its own, and checks the per-pair max
// survives and drains in order.
func TestCollectorMergeBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	run := make([]int32, 20)
	for lanes := 1; lanes <= 3; lanes++ {
		ref := map[[2]int]int{}
		fill := func(c *Collector) {
			for i := 0; i < 400; i++ {
				tEnd, qEnd, score := rng.Intn(150), rng.Intn(90), rng.Intn(500)
				c.Add(tEnd, qEnd, score)
				refAdd(ref, tEnd, qEnd, score)
			}
			for i := 0; i < 60; i++ {
				tEnd, qEnd0, n := rng.Intn(150), rng.Intn(90), 1+rng.Intn(len(run))
				for k := range run[:n] {
					run[k] = int32(rng.Intn(500))
					refAdd(ref, tEnd, qEnd0+k, int(run[k]))
				}
				c.AddRun(tEnd, qEnd0, run[:n])
			}
		}
		dst := NewCollector()
		fill(dst)
		for s := 0; s < lanes; s++ {
			src := NewCollector()
			fill(src)
			dst.Merge(src)
		}
		if !drainMatchesRef(dst, ref) {
			t.Fatalf("%d lanes: merged collector is not the per-pair max of its sources, in order", lanes)
		}
	}
}

// TestCollectorResetKeepsCapacityBlocks: after Reset, re-adding the
// same runs must not grow the warm table and must reproduce the hits.
func TestCollectorResetKeepsCapacityBlocks(t *testing.T) {
	c := NewCollector()
	scores := make([]int32, 23)
	for k := range scores {
		scores[k] = int32(k)
	}
	fill := func() {
		for tEnd := 0; tEnd < 100; tEnd++ {
			c.AddRun(tEnd, tEnd%5, scores)
		}
	}
	fill()
	want := c.Hits()
	capBefore := len(c.tiles)
	c.Reset()
	if c.Len() != 0 || len(c.Hits()) != 0 {
		t.Fatalf("reset collector still reports %d hits", c.Len())
	}
	fill()
	if len(c.tiles) != capBefore {
		t.Fatalf("warm re-fill grew the table: %d -> %d", capBefore, len(c.tiles))
	}
	if !EqualHits(c.Hits(), want) {
		t.Fatal("hits diverged across Reset + re-fill")
	}
}

// TestRunStage exercises run extension, run breaks, capacity refusal,
// and reset.
func TestRunStage(t *testing.T) {
	var s RunStage
	if !s.Empty() {
		t.Fatal("fresh stage not empty")
	}
	// One contiguous run.
	for j := int32(10); j < 20; j++ {
		if !s.Stage(3, j, j*2) {
			t.Fatalf("stage refused cell j=%d", j)
		}
	}
	// Row change breaks the run; j gap breaks the run.
	s.Stage(4, 10, 1)
	s.Stage(4, 12, 2)
	runs := s.Runs()
	if len(runs) != 3 {
		t.Fatalf("got %d runs, want 3", len(runs))
	}
	if runs[0].Row != 3 || runs[0].J0 != 10 || runs[0].N != 10 {
		t.Fatalf("run 0 = %+v", runs[0])
	}
	cells := s.Cells()
	for i := int32(0); i < runs[0].N; i++ {
		if cells[runs[0].Off+i] != (10+i)*2 {
			t.Fatalf("cell %d = %d", i, cells[runs[0].Off+i])
		}
	}
	s.Reset()
	if !s.Empty() || len(s.Runs()) != 0 {
		t.Fatal("reset stage not empty")
	}
	// Fill to cell capacity: the stage must refuse, not overflow.
	for i := 0; ; i++ {
		if !s.Stage(1, int32(i), 0) {
			break
		}
		if i > stageMaxCells {
			t.Fatal("stage never refused past capacity")
		}
	}
	s.Reset()
	// Fill to header capacity with 1-cell runs (gapped j).
	for i := 0; ; i++ {
		if !s.Stage(1, int32(2*i), 0) {
			if i < stageMaxRuns {
				t.Fatalf("stage refused after only %d runs", i)
			}
			break
		}
	}
}

// TestStageRun pins StageRun's contract case by case: an open run is
// continued, a run that does not fit is taken up to the cell capacity,
// and a run that needs a header past the header capacity is refused
// whole even though cells are free.
func TestStageRun(t *testing.T) {
	seq := func(n int) []int32 {
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(i + 1)
		}
		return s
	}
	var s RunStage
	if n := s.StageRun(5, 10, seq(4)); n != 4 {
		t.Fatalf("first run: took %d of 4", n)
	}
	// Continuation: same row, next column — by a run and by a cell.
	if n := s.StageRun(5, 14, seq(3)); n != 3 {
		t.Fatalf("continuation: took %d of 3", n)
	}
	if !s.Stage(5, 17, 99) {
		t.Fatal("Stage refused a continuing cell")
	}
	if r := s.Runs(); len(r) != 1 || r[0] != (RunHdr{Row: 5, J0: 10, Off: 0, N: 8}) {
		t.Fatalf("continued run = %+v, want one run of 8 at column 10", r)
	}
	// Same column again, a gap, another row: each opens a run.
	s.StageRun(5, 17, seq(1))
	s.StageRun(5, 20, seq(2))
	s.StageRun(6, 22, seq(2))
	if r := s.Runs(); len(r) != 4 || r[3] != (RunHdr{Row: 6, J0: 22, Off: 11, N: 2}) {
		t.Fatalf("runs after breaks = %+v", r)
	}
	if got, want := s.Cells(), []int32{1, 2, 3, 4, 1, 2, 3, 99, 1, 1, 2, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("cells = %v, want %v", got, want)
	}
	if n := s.StageRun(6, 24, nil); n != 0 || len(s.Runs()) != 4 {
		t.Fatalf("empty run: took %d, %d runs", n, len(s.Runs()))
	}

	// Partial fit: a run longer than the whole stage lands in pieces.
	s.Reset()
	long := seq(2*stageMaxCells + 7)
	s.StageRun(1, 1, seq(10))
	n := s.StageRun(2, 1, long)
	if n != stageMaxCells-10 || len(s.Cells()) != stageMaxCells {
		t.Fatalf("partial fit: took %d, stage holds %d", n, len(s.Cells()))
	}
	if s.StageRun(2, 1+int32(n), long[n:]) != 0 || s.Stage(2, 1+int32(n), 0) {
		t.Fatal("a full stage took cells")
	}
	s.Reset()
	if n2 := s.StageRun(2, 1+int32(n), long[n:]); n2 != stageMaxCells {
		t.Fatalf("after flush: took %d, want a whole stage", n2)
	}

	// Header capacity: stageMaxRuns one-cell runs, then a new run is
	// refused whole while the open one still extends.
	s.Reset()
	for i := int32(0); i < stageMaxRuns; i++ {
		if s.StageRun(1, 2*i, seq(1)) != 1 {
			t.Fatalf("run %d refused below the header capacity", i)
		}
	}
	if n := s.StageRun(1, 2*stageMaxRuns, seq(5)); n != 0 {
		t.Fatalf("run past the header capacity: took %d", n)
	}
	if n := s.StageRun(1, 2*stageMaxRuns-1, seq(5)); n != 5 {
		t.Fatalf("continuation at the header capacity: took %d of 5", n)
	}
}

// TestStageRunMatchesPerCell feeds random row runs — short, long,
// adjacent, overlapping — to StageRun under the callers' flush-and-
// continue loop and, cell by cell, to Stage under its flush-and-retry
// loop: every flush must see the same runs and cells, so the two paths
// hand the collector identical batches at identical points.
func TestStageRunMatchesPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	type batch struct {
		runs  []RunHdr
		cells []int32
	}
	for trial := 0; trial < 200; trial++ {
		var got, want []batch
		var s, ref RunStage
		drain := func(st *RunStage, to *[]batch) {
			*to = append(*to, batch{slices.Clone(st.Runs()), slices.Clone(st.Cells())})
			st.Reset()
		}
		flush := func() { drain(&s, &got) }
		refFlush := func() { drain(&ref, &want) }
		row, j := int32(1), int32(1)
		for k := 0; k < 400; k++ {
			switch rng.Intn(4) {
			case 0:
				row++
				j = int32(1 + rng.Intn(50))
			case 1:
				j += int32(rng.Intn(3)) // 0 repeats the column, 1 continues, 2 gaps
			}
			n := 1 + rng.Intn(5)
			if trial%4 == 0 && rng.Intn(20) == 0 {
				n = 1 + rng.Intn(3*stageMaxCells)
			}
			scores := make([]int32, n)
			for i := range scores {
				scores[i] = int32(rng.Intn(1000))
			}
			for j0, rest := j, scores; ; {
				took := s.StageRun(row, j0, rest)
				if took == len(rest) {
					break
				}
				flush()
				j0, rest = j0+int32(took), rest[took:]
			}
			for i, sc := range scores {
				if !ref.Stage(row, j+int32(i), sc) {
					refFlush()
					ref.Stage(row, j+int32(i), sc)
				}
			}
			j += int32(n)
		}
		flush()
		refFlush()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d flushes, reference %d", trial, len(got), len(want))
		}
		for b := range got {
			if !slices.Equal(got[b].cells, want[b].cells) || !slices.Equal(got[b].runs, want[b].runs) {
				t.Fatalf("trial %d flush %d: runs %+v, reference %+v (%d / %d cells)", trial, b,
					got[b].runs, want[b].runs, len(got[b].cells), len(want[b].cells))
			}
		}
	}
}
