package align

// RunStage is the first level of the two-level collector: a small
// fixed-capacity staging buffer of row runs that the band kernels fill
// and the emit contexts flush in bulk (occurrence fan-out, dominance
// filtering, Collector.AddRun), sized to stay L1-resident. One rule
// picks the call: a finished band row (the DFS engine's merged band)
// stages each emitting stretch whole with StageRun; a caller holding
// one cell (both engines' diagonal steps, the per-fork band sweep that
// emits inside its cell loop) uses Stage.
//
// A run is a maximal sequence of staged cells with the same row and
// consecutive j, however the calls cut it. Stages are owned by
// per-query state (emit contexts, workspaces) and reused, so the
// backing arrays are allocated once.
type RunStage struct {
	runs  []RunHdr
	cells []int32
}

// RunHdr describes one staged run: matrix row Row, first column J0,
// N scores at cells[Off : Off+N].
type RunHdr struct {
	Row, J0 int32
	Off, N  int32
}

// Stage capacities. A band row stages one run per emitting stretch;
// 128 headers / 1024 cells absorb the common per-band traffic between
// natural flush points while keeping the stage ~5 KB.
const (
	stageMaxRuns  = 128
	stageMaxCells = 1024
)

// Stage appends one cell, extending the open run when (row, j)
// continues it. It returns false — staging nothing — when the stage is
// full; the caller must flush and retry (a retry on an empty stage
// cannot fail).
func (s *RunStage) Stage(row, j, score int32) bool {
	if s.cells == nil {
		s.runs = make([]RunHdr, 0, stageMaxRuns)
		s.cells = make([]int32, 0, stageMaxCells)
	}
	if len(s.cells) == stageMaxCells {
		return false
	}
	if n := len(s.runs); n > 0 {
		h := &s.runs[n-1]
		if h.Row == row && h.J0+h.N == j {
			s.cells = append(s.cells, score)
			h.N++
			return true
		}
	}
	if len(s.runs) == stageMaxRuns {
		return false
	}
	s.runs = append(s.runs, RunHdr{Row: row, J0: j, Off: int32(len(s.cells)), N: 1})
	s.cells = append(s.cells, score)
	return true
}

// StageRun is Stage for a whole stretch of a row: it appends the cells
// (row, j0), (row, j0+1), ... with the given scores in one copy, under
// the same two capacities, and returns how many it took — all of them,
// as many as the cell capacity had room for, or none when the stage is
// full. The caller flushes and stages the rest.
func (s *RunStage) StageRun(row, j0 int32, scores []int32) int {
	if s.cells == nil {
		s.runs = make([]RunHdr, 0, stageMaxRuns)
		s.cells = make([]int32, 0, stageMaxCells)
	}
	n := min(len(scores), stageMaxCells-len(s.cells))
	if n == 0 {
		return 0
	}
	if k := len(s.runs); k > 0 && s.runs[k-1].Row == row && s.runs[k-1].J0+s.runs[k-1].N == j0 {
		s.runs[k-1].N += int32(n)
	} else if k == stageMaxRuns {
		return 0
	} else {
		s.runs = append(s.runs, RunHdr{Row: row, J0: j0, Off: int32(len(s.cells)), N: int32(n)})
	}
	s.cells = append(s.cells, scores[:n]...)
	return n
}

// Runs returns the staged run headers. Valid until Reset.
func (s *RunStage) Runs() []RunHdr { return s.runs }

// Cells returns the staged score slab indexed by RunHdr.Off/N.
func (s *RunStage) Cells() []int32 { return s.cells }

// Empty reports whether nothing is staged.
func (s *RunStage) Empty() bool { return len(s.cells) == 0 }

// Reset discards all staged runs, keeping capacity.
func (s *RunStage) Reset() {
	s.runs = s.runs[:0]
	s.cells = s.cells[:0]
}
