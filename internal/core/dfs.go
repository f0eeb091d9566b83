package core

import (
	"slices"

	"repro/internal/strie"
)

// The DFS engine computes, per q-gram fork family, the single matrix
// M_X of §2.2 restricted to its meaningful regions: the NGR diagonals
// are advanced per fork (they are disjoint by construction and use the
// one-source recurrence of Equation 3, cost 1), while all gap regions
// of the matrix live in ONE merged sparse band per trie path — fork
// regions overlap in M_X, and a matrix entry is a matrix entry no
// matter how many fork areas contain it, so merging computes each at
// most once. Every FGOE seeds the band with its cell value; the
// horizontal extension run of §3.1.3 then falls out of the band's own
// Gb carry. This achieves within the DFS what §4's reuse achieves for
// the column-wise hybrid engine: duplicated entries are not
// recalculated.
//
// The traversal is flat: recursion is an explicit stack of walkFrames,
// live diagonals are a stack of 8-byte ngrForks in one slice, and the
// merged band rows of every depth share one structure-of-arrays slab
// (js/m/ga backing arrays with per-frame offsets). Pushing a child
// appends to the slab tops; popping truncates. Nothing in the per-gram
// path allocates once the workspace is warm. Child enumeration — the
// ExtendAll at the root and at every fork expansion — rides the rank
// core's fused two-row scan: both boundary rows of a node's range are
// answered from one checkpoint-block visit whenever they are close,
// so an expanded node pays ~one scan instead of two.

// seedCell is an FGOE entering the merged band at the current row.
type seedCell struct {
	j int32 // 1-based query column
	v int32 // FGOE score
}

// ngrFork is a live no-gap diagonal in the flat walk: the 0-based query
// position of its q-prefix match and its current diagonal score. (The
// full fork struct is only needed before the row-q merge; during the
// walk a fork is either this diagonal or a cell in the merged band.)
type ngrFork struct {
	col0  int32
	score int32
}

// bandTriple is a structure-of-arrays run of band cells: parallel
// sorted columns, best scores M and vertical-gap scores Ga. As the
// workspace slab it holds every live depth's row back to back; rows are
// addressed by (start, length) pairs held in walkFrames.
type bandTriple struct {
	js, m, ga []int32
}

func (b *bandTriple) len() int { return len(b.js) }

func (b *bandTriple) reset() { b.truncate(0) }

func (b *bandTriple) truncate(n int) {
	b.js, b.m, b.ga = b.js[:n], b.m[:n], b.ga[:n]
}

func (b *bandTriple) push(j, m, ga int32) {
	b.js = append(b.js, j)
	b.m = append(b.m, m)
	b.ga = append(b.ga, ga)
}

// reserve makes room for n more cells and returns that room as views
// to be written by index; the caller truncates to the cells it kept.
func (b *bandTriple) reserve(n int) (js, m, ga []int32) {
	l := len(b.js)
	if min(cap(b.js), cap(b.m), cap(b.ga)) < l+n {
		b.js, b.m, b.ga = slices.Grow(b.js, n), slices.Grow(b.m, n), slices.Grow(b.ga, n)
	}
	return b.js[l : l+n], b.m[l : l+n], b.ga[l : l+n]
}

// row returns the cell run [start, start+n) as slice views. The views
// stay readable even if later pushes grow the slab.
func (b *bandTriple) row(start, n int) (js, m, ga []int32) {
	return b.js[start : start+n], b.m[start : start+n], b.ga[start : start+n]
}

// walkFrame is one level of the explicit DFS stack: the expanded
// node's depth, its child ranges (los/his double as the rank buffers
// backward search fills), read-only views of the frame's live
// diagonals and merged band row, the truncation water marks in the
// workspace slabs, and the emit state of the frame's node. The views
// are captured once at push time; they stay readable even if deeper
// pushes grow the slab backings, because growth copies and the
// frame's cells are never overwritten while it lives. Frame buffers
// are allocated once per stack depth and reused across pushes.
type walkFrame struct {
	depth    int
	childIdx int
	los, his []int32
	em       emitCtx

	diags        []ngrFork // this frame's live diagonals
	pJs, pM, pGa []int32   // this frame's merged band row
	forkStart    int       // ws.diags truncation mark
	bandStart    int       // ws.slab truncation mark
}

// frame returns a pointer to stack level i, growing the frame slice if
// needed. Callers must re-acquire frame pointers after calling frame
// with a larger i (growth moves the backing array).
func (ws *workspace) frame(ctx *searchCtx, i int) *walkFrame {
	for len(ws.frames) <= i {
		sigma := ctx.e.trie.Index().Sigma()
		ws.frames = append(ws.frames, walkFrame{
			los: make([]int32, sigma),
			his: make([]int32, sigma),
		})
	}
	return &ws.frames[i]
}

// dfsGram builds this fork family's row-q state — per-fork NGR
// diagonals plus the merged band holding any pre-q FGOE regions — and
// walks the subtree. survivors are ascending 0-based query positions.
func (ctx *searchCtx) dfsGram(node strie.Node, gram []byte, survivors []int32, occGetter func() []int) {
	ws := ctx.ws
	for len(ws.forks) < len(survivors) {
		ws.forks = append(ws.forks, fork{})
	}
	forks := ws.forks[:len(survivors)]
	for k, col0 := range survivors {
		ctx.newForkInto(&forks[k], col0, gram)
	}
	ws.diags = ws.diags[:0]
	ws.slab.reset()
	ctx.mergeForkBands(forks)
	ctx.dfsEmitRowQ(node, occGetter)
	if len(ws.diags) > 0 || ws.slab.len() > 0 {
		ctx.dfsWalk(node)
	}
}

// dfsEmitRowQ reports row-q hits at the gram node itself: the EMR
// diagonal cell scores q·sa and can already reach the threshold, both
// for forks still on the diagonal and for band cells from forks whose
// FGOE fell inside the EMR. Cells stage into the workspace's row-q
// RunStage by align.RunStage's rule (diagonal cells one by one,
// adjacent surviving forks continuing one run; merged-band stretches
// whole) and flush through the batched path once.
func (ctx *searchCtx) dfsEmitRowQ(node strie.Node, occGetter func() []int) {
	q := int32(node.Depth)
	st := &ctx.ws.rowQ
	flush := func() { ctx.flushRowQ(occGetter) }
	for _, d := range ctx.ws.diags {
		if int(d.score) >= ctx.h && !st.Stage(q, d.col0+q, d.score) {
			flush()
			st.Stage(q, d.col0+q, d.score)
		}
	}
	slab := &ctx.ws.slab
	for a, b := nextRun(slab.js, slab.m, 0, ctx.h); a < b; a, b = nextRun(slab.js, slab.m, b, ctx.h) {
		stageRun(st, flush, q, slab.js[a], slab.m[a:b])
	}
	flush()
}

// flushRowQ drains the row-q stage: each run fans out over the gram
// node's occurrences through the dominance filter and batched AddRun.
func (ctx *searchCtx) flushRowQ(occGetter func() []int) {
	st := &ctx.ws.rowQ
	if st.Empty() {
		return
	}
	cells := st.Cells()
	for _, r := range st.Runs() {
		run := cells[r.Off : r.Off+r.N]
		for _, t := range occGetter() {
			ctx.forwardRun(t+int(r.Row)-1, int(r.J0)-1, run)
		}
	}
	st.Reset()
}

// mergeRun is one fork's sorted cell run during the row-q band merge:
// the fork plus the index of its current live cell.
type mergeRun struct {
	f   *fork
	pos int32
}

// key is the run's current 1-based query column.
func (r *mergeRun) key() int32 { return r.f.lo + r.pos }

// advance moves the run past its current cell to the next live one,
// skipping dead interior cells; false means the run is exhausted.
func (r *mergeRun) advance() bool {
	r.pos++
	for int(r.pos) < len(r.f.m) && r.f.m[r.pos] <= negInf {
		r.pos++
	}
	return int(r.pos) < len(r.f.m)
}

// siftDownRuns restores the min-heap-by-key property below index i.
func siftDownRuns(runs []mergeRun, i int) {
	for {
		l := 2*i + 1
		if l >= len(runs) {
			return
		}
		s := l
		if r := l + 1; r < len(runs) && runs[r].key() < runs[s].key() {
			s = r
		}
		if runs[i].key() <= runs[s].key() {
			return
		}
		runs[i], runs[s] = runs[s], runs[i]
		i = s
	}
}

// mergeForkBands splits the initial forks into the live-diagonal stack
// (ws.diags) and one merged row-q band (ws.slab row 0), taking the
// maximum on column collisions. Each fork's band cells are already
// sorted by column, so the merge is a min-heap k-way merge over the
// fork runs — O(cells·log k), no per-gram allocation, no comparison
// sort. Dead interior cells (negInf) are skipped, preserving the
// all-cells-alive invariant of the merged band.
func (ctx *searchCtx) mergeForkBands(forks []fork) {
	ws := ctx.ws
	runs := ws.runs[:0]
	for k := range forks {
		f := &forks[k]
		switch f.phase {
		case phaseNGR:
			ws.diags = append(ws.diags, ngrFork{col0: f.col0, score: f.score})
		case phaseGap:
			r := mergeRun{f: f, pos: -1}
			if r.advance() {
				runs = append(runs, r)
			}
		}
	}
	ws.runs = runs // retain capacity across grams
	for i := len(runs)/2 - 1; i >= 0; i-- {
		siftDownRuns(runs, i)
	}
	for len(runs) > 0 {
		j := runs[0].key()
		// Fold every run head at column j, keeping max m and max ga.
		mv, gav := negInf, negInf
		for len(runs) > 0 && runs[0].key() == j {
			r := &runs[0]
			if v := r.f.m[r.pos]; v > mv {
				mv = v
			}
			if g := r.f.ga[r.pos]; g > gav {
				gav = g
			}
			if r.advance() {
				siftDownRuns(runs, 0)
			} else {
				runs[0] = runs[len(runs)-1]
				runs = runs[:len(runs)-1]
				siftDownRuns(runs, 0)
			}
		}
		ws.slab.push(j, mv, gav)
	}
}

// dfsWalk expands the subtree under the gram node with an explicit
// stack. For each live trie edge it advances every parent diagonal one
// row (appending survivors to the fork stack, FGOEs to the seed
// scratch), sweeps the merged band into a new slab row, and pushes a
// frame when anything stayed alive. Popping truncates the fork and band
// slabs back to the parent's water marks.
func (ctx *searchCtx) dfsWalk(root strie.Node) {
	ws := ctx.ws
	ctx.st.NodesVisited++
	if root.Depth > ctx.st.MaxDepth {
		ctx.st.MaxDepth = root.Depth
	}
	if root.Depth >= ctx.lmax {
		return
	}
	fr := ws.frame(ctx, 0)
	if root.Hi-root.Lo == 1 {
		ctx.dfsLinear(root, 0, len(ws.diags), 0, ws.slab.len(), &fr.em)
		return
	}
	fm := ctx.e.trie.Index()
	fr.depth = root.Depth
	fr.childIdx = 0
	fr.forkStart, fr.diags = 0, ws.diags
	fr.bandStart = 0
	fr.pJs, fr.pM, fr.pGa = ws.slab.row(0, ws.slab.len())
	fm.ExtendAll(root.Lo, root.Hi, fr.los, fr.his)

	sigma := fm.Sigma()
	mq := int32(len(ctx.query))
	colBound := ctx.colBound
	barrier := ctx.barrier
	seeds := ws.seeds
	var nodesVisited, ngrEntries int64
	top := 0
	for top >= 0 {
		// One iteration advances at most one trie edge: O(m) diagonal
		// steps plus one O(m) band sweep, so a cancellation lands within
		// a bounded number of entries of the signal (cancel.go).
		if ctx.cancelled(ngrEntries) {
			break
		}
		fr := &ws.frames[top]
		if fr.childIdx >= sigma {
			ws.diags = ws.diags[:fr.forkStart]
			ws.slab.truncate(fr.bandStart)
			top--
			continue
		}
		k := fr.childIdx
		fr.childIdx++
		if k == barrier {
			// Hard reset: a barrier-labelled edge is never descended, so
			// no alignment path can span the barrier row (engine.go,
			// Options.BarrierByte).
			continue
		}
		lo, hi := int(fr.los[k]), int(fr.his[k])
		if lo >= hi {
			continue
		}
		i := fr.depth + 1
		if len(ws.frames) <= top+1 {
			ws.frame(ctx, top+1) // grow moves the backing array
			fr = &ws.frames[top]
		}
		cf := &ws.frames[top+1]
		cf.em.reset(ctx, strie.Node{Lo: lo, Hi: hi, Depth: i})
		deltaRow := ctx.deltaRow(k)

		// One NGR step per live parent diagonal (Equation 3).
		cs := len(ws.diags) // the parent's fork range ends here
		seeds = seeds[:0]
		rowB := ctx.rowBound(i)
		for _, d := range fr.diags {
			j := d.col0 + int32(i) // 1-based diagonal column
			if j > mq {
				continue
			}
			ngrEntries++
			sc := d.score + deltaRow[j-1]
			if sc <= 0 || sc < rowB || sc < colBound[j-1] {
				continue
			}
			if int(sc) >= ctx.h {
				cf.em.emit(i, j, sc)
			}
			if int(sc) > ctx.gOpen {
				// The FGOE cell joins the merged band; its horizontal
				// extension run emerges from the band's Gb carry.
				seeds = append(seeds, seedCell{j: j, v: sc})
			} else {
				ws.diags = append(ws.diags, ngrFork{col0: d.col0, score: sc})
			}
		}
		childForkLen := len(ws.diags) - cs

		// One merged-band row per trie edge.
		cbs := ws.slab.len()
		ctx.advanceMergedBand(fr.pJs, fr.pM, fr.pGa, deltaRow, i, seeds, &cf.em, &ws.slab)
		childBandLen := ws.slab.len() - cbs

		if childForkLen == 0 && childBandLen == 0 {
			cf.em.flush()
			ws.diags = ws.diags[:cs]
			ws.slab.truncate(cbs)
			continue
		}
		nodesVisited++
		if i > ctx.st.MaxDepth {
			ctx.st.MaxDepth = i
		}
		if i >= ctx.lmax {
			cf.em.flush()
			ws.diags = ws.diags[:cs]
			ws.slab.truncate(cbs)
			continue
		}
		if hi-lo == 1 {
			// A single-occurrence node's remaining path is one LF step
			// per level (dfsLinear), far cheaper than the two rank
			// passes a child enumeration costs — hand off immediately.
			ws.seeds = seeds
			ctx.dfsLinear(strie.Node{Lo: lo, Hi: hi, Depth: i}, cs, childForkLen, cbs, childBandLen, &cf.em)
			seeds = ws.seeds
			ws.diags = ws.diags[:cs]
			ws.slab.truncate(cbs)
			continue
		}
		// Flush at push: nothing stages into this frame's emit context
		// once its own row is done (descendants use deeper frames), so
		// the runs fan out now, while the node is still the tenant.
		cf.em.flush()
		cf.depth = i
		cf.childIdx = 0
		cf.forkStart, cf.diags = cs, ws.diags[cs:]
		cf.bandStart = cbs
		cf.pJs, cf.pM, cf.pGa = ws.slab.row(cbs, childBandLen)
		fm.ExtendAll(lo, hi, cf.los, cf.his)
		top++
	}
	ws.seeds = seeds
	ctx.st.NodesVisited += nodesVisited
	ctx.st.EntriesNGR += ngrEntries
}

// dfsLinear walks a single-occurrence path without enumerating
// children: the unique next edge letter and child row come from one
// LF step per level (Trie.SingleChild), and the path's text position
// is only resolved — lazily, by the emitCtx — if a cell actually
// reaches the threshold; once resolved, the walk switches to direct
// text reads. Rows ping-pong between the two workspace linear band
// rows so storage stays bounded regardless of path length; diagonals
// are filtered in place within their fork-stack range (the caller
// discards the range afterwards).
//
// NodesVisited counting matches dfsWalk's rule exactly (see Stats): a
// level is counted at walk time only when live state survived the
// advance into it, so a path's dying level is not counted — the same
// as a dfsWalk child whose fork and band advances both come up empty.
// The handoff depth therefore never changes the diagnostic.
func (ctx *searchCtx) dfsLinear(node strie.Node, forkStart, forkLen, bandStart, bandLen int, em *emitCtx) {
	ws := ctx.ws
	text := ctx.e.trie.Text()
	fm := ctx.e.trie.Index()
	em.resetLinearLazy(ctx)
	mq := int32(len(ctx.query))
	colBound := ctx.colBound
	var nodes, ngrEntries int64
	maxDepth := ctx.st.MaxDepth

	// The parent row starts as the node's slab row, then ping-pongs
	// between the two workspace linear rows.
	curJs, curM, curGa := ws.slab.row(bandStart, bandLen)
	outIdx := 0

	live := ws.diags[forkStart : forkStart+forkLen]
	seeds := ws.seeds
	u := node
	for i := node.Depth + 1; i <= ctx.lmax; i++ {
		if ctx.cancelled(ngrEntries) {
			break // a level is one bounded unit, like a dfsWalk edge
		}
		var code int
		if t := em.fixedT; t >= 0 {
			pos := t + i - 1
			if pos >= len(text) {
				break
			}
			code = fm.CodeOf(text[pos])
		} else {
			v, c, ok := ctx.e.trie.SingleChild(u)
			if !ok {
				break
			}
			u, code = v, c
			em.linRow, em.linDep = u.Lo, i
		}
		if code == ctx.barrier {
			break // hard reset: the path may not span the barrier row
		}
		deltaRow := ctx.deltaRow(code)
		seeds = seeds[:0]
		rowB := ctx.rowBound(i)
		n := 0
		for _, d := range live {
			j := d.col0 + int32(i)
			if j > mq {
				continue
			}
			ngrEntries++
			sc := d.score + deltaRow[j-1]
			if sc <= 0 || sc < rowB || sc < colBound[j-1] {
				continue
			}
			if int(sc) >= ctx.h {
				em.emit(i, j, sc)
			}
			if int(sc) > ctx.gOpen {
				seeds = append(seeds, seedCell{j: j, v: sc})
			} else {
				live[n] = ngrFork{col0: d.col0, score: sc}
				n++
			}
		}
		live = live[:n]
		out := &ws.lin[outIdx]
		out.reset()
		ctx.advanceMergedBand(curJs, curM, curGa, deltaRow, i, seeds, em, out)
		curJs, curM, curGa = out.js, out.m, out.ga
		outIdx = 1 - outIdx
		if len(live) == 0 && len(curJs) == 0 {
			break
		}
		nodes++
		if i > maxDepth {
			maxDepth = i
		}
	}
	em.flush() // the walk ends here; staged runs must not outlive it
	ws.seeds = seeds
	ctx.st.NodesVisited += nodes
	ctx.st.EntriesNGR += ngrEntries
	ctx.st.MaxDepth = maxDepth
}

// advanceMergedBand computes the merged band's next row from the
// parent row (pJs/pM/pGa, all cells alive by invariant) and the new
// FGOE seeds (sorted by column: diagonals step in ascending col0 order
// per gram), appending it to out, then stages the row's emitting
// stretches. It only drives bandRow. A contiguous, seedless parent —
// the dominant shape on homologous paths — is one kernel call. Any
// other row is cut at its events, the first column of each maximal
// contiguous parent segment and every seed column: each event starts a
// kernel call that runs up to the next event, with the Gb carry
// threaded from call to call.
func (ctx *searchCtx) advanceMergedBand(pJs, pM, pGa []int32, deltaRow []int32, i int, seeds []seedCell, em *emitCtx, out *bandTriple) {
	np := len(pJs)
	if np == 0 && len(seeds) == 0 {
		return
	}
	start := out.len()
	from := start // cells before it are staged, or not to be
	end := int32(len(ctx.query)) + 1
	if len(seeds) == 0 && pJs[np-1]-pJs[0] == int32(np-1) {
		ctx.bandRow(pJs[0], pM, pGa, deltaRow, i, pJs[0], end, negInf, negInf, out)
	} else {
		var lo int32 // the segment whose span [lo, lo+len(sM)] the calls run in
		var sM, sGa []int32
		gb := negInf
		for a, si := 0, 0; a < np || si < len(seeds); {
			j0, sv := end, negInf
			if a < np {
				j0 = pJs[a]
			}
			if si < len(seeds) && seeds[si].j <= j0 {
				j0, sv = seeds[si].j, seeds[si].v
				si++
			}
			if a < np && pJs[a] == j0 {
				b := a + 1
				for b < np && pJs[b] == pJs[b-1]+1 {
					b++
				}
				lo, sM, sGa = j0, pM[a:b], pGa[a:b]
				a = b
			} else if j0 > lo+int32(len(sM)) {
				lo, sM, sGa = j0, nil, nil // a seed no parent cell reaches
			}
			stop := end
			if a < np {
				stop = pJs[a]
			}
			if si < len(seeds) {
				stop = min(stop, seeds[si].j)
			}
			n0 := out.len()
			gb = ctx.bandRow(lo, sM, sGa, deltaRow, i, j0, stop, gb, sv, out)
			if out.len() > n0 && out.js[n0] == j0 && out.m[n0] == sv {
				// A seed cell at its own value was emitted by the diagonal
				// step; only improvements and sweep cells emit here.
				ctx.emitRuns(em, i, out.js[from:n0], out.m[from:n0])
				from = n0 + 1
			}
		}
	}
	if alaeDebug {
		ctx.checkBandRow(out, start)
	}
	ctx.emitRuns(em, i, out.js[from:], out.m[from:])
}

// bandRow is the band row kernel. Inside the span [lo, lo+np] of one
// contiguous parent segment (pM/pGa; np = 0 for a lone seed) it
// computes row i over the columns [j0, stop) in four phases, writing
// the surviving cells to out by index and returning the Gb carry into
// the column it stopped at (negInf when the carry died first):
//
//  1. cell j0, from whichever of its diagonal, vertical, incoming-Gb
//     (gb) and seed (sv) sources exist;
//  2. the interior stretch up to lo+np−1, diagonal and vertical sources
//     both present, over slices cut so that bounds checks vanish;
//  3. cell lo+np, diagonal source only;
//  4. the Gb tail, while the carry lives.
//
// A cell is alive iff mv > 0, mv ≥ rowBound(i) and mv ≥ colBound[j−1];
// one with all three sweep sources is an interior entry, any other
// sweep-computed cell a boundary entry, and a seed-only cell neither
// (the diagonal step counted it as an NGR entry).
func (ctx *searchCtx) bandRow(lo int32, pM, pGa, deltaRow []int32, i int, j0, stop, gb, sv int32, out *bandTriple) int32 {
	open := int32(ctx.s.GapOpen + ctx.s.GapExtend)
	ext := int32(ctx.s.GapExtend)
	colBound := ctx.colBound
	floor := max(1, ctx.rowBound(i))
	hi1 := lo + int32(len(pM)) // the last column a parent cell reaches
	base := out.len()
	js, m, ga := out.reserve(int(stop - j0))
	n := 0

	k := j0 - lo
	dg, gav := negInf, negInf
	sources := 0
	if k > 0 {
		dg = pM[k-1] + deltaRow[j0-1]
		sources++
	}
	if j0 < hi1 {
		gav = max(pM[k]+open, pGa[k]+ext)
		sources++
	}
	if gb > negInf {
		sources++
	}
	cells, interior := int64(min(sources, 1)), int64(sources/3)
	mv := max(dg, gav, gb, sv)
	alive := mv >= max(floor, colBound[j0-1])
	if alive {
		js[0], m[0], ga[0] = j0, mv, gav
		n = 1
	}
	gb = gbCarry(gb, mv, open, ext, alive)

	if e := min(hi1, stop); e > j0+1 {
		dgs, vs, gas := pM[k:e-lo-1], pM[k+1:e-lo], pGa[k+1:e-lo]
		ds, cbs := deltaRow[j0:e-1], colBound[j0:e-1]
		dgs, gas, ds, cbs = dgs[:len(vs)], gas[:len(vs)], ds[:len(vs)], cbs[:len(vs)]
		cells += int64(len(vs))
		for t, v := range vs {
			if gb > negInf {
				interior++
			}
			gav := max(v+open, gas[t]+ext)
			mv := max(dgs[t]+ds[t], gav, gb)
			alive := mv >= max(floor, cbs[t])
			if alive {
				js[n], m[n], ga[n] = j0+1+int32(t), mv, gav
				n++
			}
			gb = gbCarry(gb, mv, open, ext, alive)
		}
	}
	j := max(j0+1, hi1)
	if j == hi1 && j < stop {
		cells++
		mv := max(pM[len(pM)-1]+deltaRow[j-1], gb)
		alive := mv >= max(floor, colBound[j-1])
		if alive {
			js[n], m[n], ga[n] = j, mv, negInf
			n++
		}
		gb = gbCarry(gb, mv, open, ext, alive)
		j++
	}
	for ; j < stop && gb > negInf; j++ {
		cells++
		alive := gb >= max(floor, colBound[j-1])
		if alive {
			js[n], m[n], ga[n] = j, gb, negInf
			n++
		}
		gb = gbCarry(gb, gb, open, ext, alive)
	}
	out.truncate(base + n)
	if !ctx.mute {
		ctx.st.EntriesBoundary += cells - interior
		ctx.st.EntriesInterior += interior
	}
	return gb
}

// gbCarry is the horizontal-gap score a cell hands to column j+1: the
// incoming carry extended, or a gap opened from the cell when it is
// alive; negInf once it can no longer be positive.
func gbCarry(gb, mv, open, ext int32, alive bool) int32 {
	ng := gb + ext
	if alive {
		ng = max(ng, mv+open)
	}
	if ng <= 0 {
		return negInf
	}
	return ng
}

// nextRun returns the first maximal stretch [a, b) of cells at or after
// index from whose scores reach h and whose columns are consecutive;
// a == b == len(m) when there is none.
func nextRun(js, m []int32, from, h int) (a, b int) {
	for a = from; a < len(m) && int(m[a]) < h; a++ {
	}
	for b = a; b < len(m) && int(m[b]) >= h; b++ {
	}
	if b > a && int(js[b-1]-js[a]) != b-1-a {
		// Columns ascend strictly, so the stretch has a gap: cut there.
		for b = a + 1; js[b] == js[b-1]+1; b++ {
		}
	}
	return a, b
}

// emitRuns stages, in ascending column order, every maximal stretch of
// row i's cells that reaches the threshold, each as one run.
func (ctx *searchCtx) emitRuns(em *emitCtx, i int, js, m []int32) {
	for a, b := nextRun(js, m, 0, ctx.h); a < b; a, b = nextRun(js, m, b, ctx.h) {
		em.emitRun(i, js[a], m[a:b])
	}
}
