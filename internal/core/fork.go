package core

import (
	"repro/internal/align"
	"repro/internal/strie"
)

const negInf = int32(-1) << 28

// forkPhase distinguishes the two lives of a fork (§3.1.3): on the
// exact-match/no-gap diagonal, or inside the gap region entered at the
// first gap-open entry.
type forkPhase uint8

const (
	phaseNGR forkPhase = iota
	phaseGap
	phaseDead
)

// fork is the per-fork DP state carried before the row-q merge and
// through the hybrid engine's traversal. In phaseNGR only the diagonal
// score is live. In phaseGap the state is the current row of the
// fork's gap-region band: columns [lo, lo+len(m)) (1-based query
// columns) with best scores m and vertical-gap scores ga; dead
// interior cells hold negInf. The band storage is either fork-owned
// (the initial forks of a gram, element-wise reused from the
// workspace) or a view into a per-level band slab (the hybrid
// descent); in both cases writes go to fresh storage, never through
// the views, so copied forks stay safe. (The DFS walk carries the
// leaner ngrFork instead — see dfs.go.)
type fork struct {
	col0  int32 // 0-based query position of the q-prefix match
	phase forkPhase
	score int32 // NGR diagonal score (phaseNGR only)

	lo     int32
	m, ga  []int32
	fgoeAt int32 // row of the FGOE, for diagnostics and hybrid grouping
}

// bandPair is a structure-of-arrays run of band cells without the
// column array of bandTriple: a hybrid fork band is a contiguous
// column run [lo, lo+len(m)), so only the best scores M and one gap
// dimension need storing. Used both as the per-level band slab of the
// hybrid descent and as ping-pong scratch.
type bandPair struct {
	m, ga []int32
}

func (b *bandPair) len() int { return len(b.m) }

func (b *bandPair) reset() { b.truncate(0) }

func (b *bandPair) truncate(n int) { b.m, b.ga = b.m[:n], b.ga[:n] }

func (b *bandPair) push(m, ga int32) {
	b.m = append(b.m, m)
	b.ga = append(b.ga, ga)
}

// emitCtx reports cells whose score reaches the threshold: each is
// fanned out to every occurrence of the current path node. A nil
// *emitCtx disables emission (used where it is provably impossible or
// handled elsewhere). Cells accumulate in a per-context staging buffer
// as row runs and only reach the collector on flush (emit.go), so a
// contiguous emitting stretch costs one copy into the stage plus one
// batched AddRun per occurrence, not one table probe per cell per
// occurrence. All position resolution is lazy and buffered: node mode
// locates the occurrence list once per flush into a retained buffer,
// and lazy-linear mode (single-occurrence LF walks) resolves the
// path's text position only if a cell actually reaches the threshold —
// paths that die silently never pay a locate.
//
// Staged runs must never outlive their tenant: the traversals flush
// wherever an emit context's node goes out of scope (frame pop, dead or
// depth-capped child edges, linear-walk end), so reset always meets an
// empty stage — asserted under alaedebug, flushed regardless — and
// resetLinearLazy's flush hands a node's own row over to its walk.
type emitCtx struct {
	ctx    *searchCtx
	node   strie.Node
	occ    []int // located occurrences; nil until first flush
	buf    []int // retained locate buffer backing occ
	fixedT int   // ≥0 known single occurrence; -1 node mode; lazyT lazy-linear mode
	linRow int   // lazy-linear: suffix-array row of the current path node
	linDep int   // lazy-linear: its depth
	stage  align.RunStage
}

// lazyT marks a lazy-linear emitCtx whose path position is not yet
// resolved.
const lazyT = -2

func (e *emitCtx) reset(ctx *searchCtx, node strie.Node) {
	if alaeDebug && !e.stage.Empty() {
		panic("core: emit context rebound with its last node's runs still staged")
	}
	e.flush()
	e.ctx, e.node, e.occ, e.fixedT = ctx, node, nil, -1
}

// resetLinearLazy prepares emission for a width-one LF walk: the
// path's text position is resolved from (linRow, linDep) on the first
// emit, if any.
func (e *emitCtx) resetLinearLazy(ctx *searchCtx) {
	e.flush()
	e.ctx, e.occ, e.fixedT = ctx, nil, lazyT
}

// emit stages a hit at matrix row i (== e.node.Depth), 1-based query
// column j: the per-cell form, for the one-cell-a-row diagonal steps.
func (e *emitCtx) emit(i int, j int32, score int32) {
	if e == nil {
		return
	}
	e.resolve()
	if !e.stage.Stage(int32(i), j, score) {
		e.flush()
		e.stage.Stage(int32(i), j, score)
	}
}

// emitRun is emit for a band row's stretch at columns j0, j0+1, ...
func (e *emitCtx) emitRun(i int, j0 int32, scores []int32) {
	e.resolve()
	stageRun(&e.stage, e.flush, int32(i), j0, scores)
}

// resolve fixes a lazy-linear path's text position at its first emission
// — not at flush — so the walk switches to direct text reads at once.
func (e *emitCtx) resolve() {
	if e.fixedT == lazyT {
		e.fixedT = e.ctx.e.trie.PathOccurrence(strie.Node{Lo: e.linRow, Hi: e.linRow + 1, Depth: e.linDep})
	}
}

// stageRun stages one row run into st, draining the stage through flush
// whenever it fills: a run longer than the room left — a protein row
// can exceed the whole stage — lands in pieces, in ascending order.
func stageRun(st *align.RunStage, flush func(), row, j0 int32, scores []int32) {
	for {
		n := st.StageRun(row, j0, scores)
		if n == len(scores) {
			return
		}
		flush()
		j0, scores = j0+int32(n), scores[n:]
	}
}

// flush drains the staged runs to the collector: occurrences are
// resolved once, and each run goes through the dominance filter and
// the tile-batched AddRun (emit.go).
func (e *emitCtx) flush() {
	if e.stage.Empty() {
		return
	}
	ctx := e.ctx
	cells := e.stage.Cells()
	if e.fixedT >= 0 {
		for _, r := range e.stage.Runs() {
			ctx.forwardRun(e.fixedT+int(r.Row)-1, int(r.J0)-1, cells[r.Off:r.Off+r.N])
		}
	} else {
		if e.occ == nil {
			e.buf = ctx.e.trie.OccurrencesAppend(e.node, e.buf[:0])
			e.occ = e.buf
		}
		for _, r := range e.stage.Runs() {
			run := cells[r.Off : r.Off+r.N]
			for _, t := range e.occ {
				ctx.forwardRun(t+int(r.Row)-1, int(r.J0)-1, run)
			}
		}
	}
	e.stage.Reset()
}

// newForkInto initialises f for a q-prefix match at 0-based query
// position col0, reusing f's band storage. Rows 1..q are the EMR with
// assigned scores i·sa (counted as EntriesEMR by the caller). If the
// EMR diagonal already crosses |sg+ss| before row q — possible when
// q·sa > |sg+ss|, e.g. scheme ⟨4,−5,−5,−2⟩ — the fork enters its gap
// phase inside the EMR and the band is advanced through the remaining
// gram rows here, ping-ponging between the workspace scratch rows and
// landing in the fork's own storage. Emission is a no-op during those
// rows: any gap-region cell at row i ≤ q scores at most i·sa − |sg+ss|
// ≤ sa < MinThreshold ≤ H.
func (ctx *searchCtx) newForkInto(f *fork, col0 int32, gram []byte) {
	q := len(gram)
	sa := int32(ctx.s.Match)
	f.col0, f.phase, f.score = col0, phaseNGR, int32(q)*sa
	f.lo, f.fgoeAt = 0, 0
	f.m, f.ga = f.m[:0], f.ga[:0]
	if int(f.score) <= ctx.gOpen {
		return
	}
	// FGOE inside the EMR: the first row whose assigned score exceeds
	// |sg+ss|.
	ws := ctx.ws
	l := ctx.gOpen/ctx.s.Match + 1
	cur := &ws.hb[0]
	cur.reset()
	ctx.seedBandInto(l, col0+int32(l), int32(l)*sa, nil, cur)
	f.phase, f.fgoeAt, f.lo = phaseGap, int32(l), col0+int32(l)
	fm := ctx.e.trie.Index()
	curIdx := 0
	for row := l + 1; row <= q; row++ {
		out := &ws.hb[1-curIdx]
		out.reset()
		newLo, n := ctx.advanceBandInto(f.lo, cur.m, cur.ga, ctx.deltaRow(fm.CodeOf(gram[row-1])), row, nil, out)
		if n == 0 {
			f.phase = phaseDead
			return
		}
		f.lo = newLo
		curIdx = 1 - curIdx
		cur = out
	}
	f.m = append(f.m[:0], cur.m...)
	f.ga = append(f.ga[:0], cur.ga...)
}

// seedBandInto appends the band row a fork enters its gap phase with —
// the FGOE cell (l, c) with score v plus its horizontal extension run,
// the paper's extension entry (l, πp+l) and its Gb continuation:
// M(l, c+d) = v + sg + d·ss while alive — to out, returning the cell
// count. (The downward extension entry (l+1, πp+l−1) falls out of the
// next advanceBandInto.) The caller owns the fork bookkeeping (phase,
// fgoeAt, lo, band views).
func (ctx *searchCtx) seedBandInto(l int, c, v int32, emit *emitCtx, out *bandPair) int {
	start := out.len()
	out.push(v, negInf)
	if int(v) >= ctx.h {
		emit.emit(l, c, v)
	}
	mq := int32(len(ctx.query))
	open := int32(ctx.s.GapOpen + ctx.s.GapExtend)
	ext := int32(ctx.s.GapExtend)
	rowB := ctx.rowBound(l)
	colBound := ctx.colBound
	var boundary int64
	gb := v + open
	for j := c + 1; j <= mq && gb > 0; j++ {
		boundary++
		if gb < rowB || gb < colBound[j-1] {
			break
		}
		if int(gb) >= ctx.h {
			emit.emit(l, j, gb)
		}
		out.push(gb, negInf)
		gb += ext
	}
	if !ctx.mute {
		ctx.st.EntriesBoundary += boundary
	}
	return out.len() - start
}

// stepNGR advances an NGR fork by one row whose edge letter has δ row
// deltaRow. At the FGOE it marks the fork phaseGap with lo/fgoeAt set
// but does NOT build the band: the caller must invoke seedBandInto (it
// owns the emitter, the mute policy and the band storage).
func (ctx *searchCtx) stepNGR(f *fork, deltaRow []int32, i int) {
	j := f.col0 + int32(i) // 1-based diagonal column
	if int(j) > len(ctx.query) {
		f.phase = phaseDead
		return
	}
	ctx.st.EntriesNGR++
	f.score += deltaRow[j-1]
	if f.score <= 0 || !ctx.minGainOK(f.score, i, j) {
		f.phase = phaseDead
		return
	}
	if int(f.score) > ctx.gOpen {
		// First gap-open entry reached.
		f.phase = phaseGap
		f.fgoeAt = int32(i)
		f.lo = j
	}
}

// advanceBandInto computes row i of a gap-phase fork's band — columns
// [inLo, inLo+len(inM)) with best scores inM and vertical-gap scores
// inGa, dead interior cells negInf — appending the surviving run to
// out and returning its first column and cell count (0 cells = the
// band died). Entry counting follows the paper's cost model (boundary
// = two adjacent sources, interior = three) and cells at or above the
// threshold emit. The caller owns the fork bookkeeping; input and
// output storage must not alias (the callers hand distinct scratch
// rows or slab levels).
func (ctx *searchCtx) advanceBandInto(inLo int32, inM, inGa []int32, deltaRow []int32, i int, emit *emitCtx, out *bandPair) (outLo int32, n int) {
	s := ctx.s
	open := int32(s.GapOpen + s.GapExtend)
	ext := int32(s.GapExtend)
	mq := int32(len(ctx.query))

	inHi := inLo + int32(len(inM)) - 1
	start := out.len()
	firstAlive, lastAlive := int32(-1), int32(-1)
	rowB := ctx.rowBound(i)
	colBound := ctx.colBound
	var interior, boundary int64

	gb := negInf
	for j := inLo; j <= mq; j++ {
		diag, ga := negInf, negInf
		sources := 0
		if k := j - 1 - inLo; k >= 0 && j-1 <= inHi && inM[k] > negInf {
			diag = inM[k] + deltaRow[j-1]
			sources++
		}
		if k := j - inLo; k >= 0 && j <= inHi {
			if inM[k] > negInf {
				ga = inM[k] + open
				sources++
			}
			if g := inGa[k]; g > negInf && g+ext > ga {
				ga = g + ext
				if sources == 0 {
					sources++
				}
			}
		}
		if gb > negInf {
			sources++
		}
		if sources == 0 {
			// Nothing can make this or any further cell alive.
			if j > inHi {
				break
			}
			if firstAlive >= 0 {
				out.push(negInf, negInf)
			}
			continue
		}
		mv := diag
		if ga > mv {
			mv = ga
		}
		if gb > mv {
			mv = gb
		}
		// Cost accounting: boundary cells miss at least one of the
		// three recurrence inputs. Hybrid mode advances bands purely
		// as liveness oracles and counts gap-region work in its
		// vertical phase instead (ctx.mute).
		if sources >= 3 {
			interior++
		} else {
			boundary++
		}
		alive := mv > 0 && mv >= rowB && mv >= colBound[j-1]
		if alive {
			if int(mv) >= ctx.h {
				emit.emit(i, j, mv)
			}
			if firstAlive < 0 {
				firstAlive = j
			}
			lastAlive = j
			out.push(mv, ga)
		} else if firstAlive >= 0 {
			out.push(negInf, negInf)
		}
		// Horizontal-gap carry to column j+1.
		ng := negInf
		if gb > negInf {
			ng = gb + ext
		}
		if alive && mv+open > ng {
			ng = mv + open
		}
		if ng <= 0 {
			ng = negInf
		}
		gb = ng
	}
	if !ctx.mute {
		ctx.st.EntriesInterior += interior
		ctx.st.EntriesBoundary += boundary
	}
	if firstAlive < 0 {
		out.truncate(start)
		return 0, 0
	}
	// Trim trailing dead cells.
	n = int(lastAlive - firstAlive + 1)
	out.truncate(start + n)
	return firstAlive, n
}
