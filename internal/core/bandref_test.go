package core

// The per-cell merged-band sweep the three-phase row kernel (dfs.go:
// bandRow under advanceMergedBand) replaced, kept verbatim as the
// differential reference: one pass in increasing column order with
// explicit source-presence branches, one push per surviving cell and
// one emit call per cell at or above the threshold. Only the sink
// changed — emission goes to a callback so a test can record the exact
// (row, j, score) sequence.

type emitFn func(i int, j, score int32)

// refMergedBand computes the merged band's next row from the
// parent row (pJs/pM/pGa, all cells alive by invariant) and the new
// FGOE seeds, appending to out. The sweep is a single fused pass in
// increasing column order: parent and seed cursors advance linearly, Gb
// chains to j+1, and the next candidate column is derived from the
// cursors — no candidate prepass, no binary search, no allocation.
// Score filtering, boundary/interior entry counting, and threshold
// emission match the recurrence exactly. Seeds must be sorted by
// column (diagonals step in ascending col0 order per gram, so they
// are).
func (ctx *searchCtx) refMergedBand(pJs, pM, pGa []int32, deltaRow []int32, i int, seeds []seedCell, em emitFn, out *bandTriple) {
	np := len(pJs)
	if np == 0 && len(seeds) == 0 {
		return
	}
	if len(seeds) == 0 && np > 0 && pJs[np-1]-pJs[0] == int32(np-1) {
		// The parent row is one contiguous column run — the dominant
		// shape on homologous paths — so the candidate set is just
		// [lo, hi+1] plus the Gb tail and every cell indexes the
		// parent arrays directly.
		ctx.refDenseBand(pJs[0], pM, pGa, deltaRow, i, em, out)
		return
	}
	s := ctx.s
	open := int32(s.GapOpen + s.GapExtend)
	ext := int32(s.GapExtend)
	mq := int32(len(ctx.query))
	colBound := ctx.colBound
	rowB := ctx.rowBound(i)
	var boundary, interior int64
	const farJ = int32(1) << 30

	gb := negInf
	pi := 0 // first parent index with pJs[pi] >= j-1
	si := 0 // first unconsumed seed
	j := farJ
	if np > 0 {
		j = pJs[0]
	}
	if len(seeds) > 0 && seeds[0].j < j {
		j = seeds[0].j
	}
	for j <= mq {
		for pi < np && pJs[pi] < j-1 {
			pi++
		}
		dg, ga := negInf, negInf
		sources := 0
		k := pi
		if k < np && pJs[k] == j-1 {
			dg = pM[k] + deltaRow[j-1]
			sources++
			k++
		}
		hasCellAtJ := k < np && pJs[k] == j
		if hasCellAtJ {
			// Merged-band cells are always alive (pM[k] > 0), so the
			// Ga recurrence always has its M source.
			ga = pM[k] + open
			sources++
			if pga := pGa[k]; pga > negInf && pga+ext > ga {
				ga = pga + ext
			}
		}
		if gb > negInf {
			sources++
		}
		sv := negInf
		for si < len(seeds) && seeds[si].j < j {
			si++
		}
		if si < len(seeds) && seeds[si].j == j {
			sv = seeds[si].v
			si++
		}
		mv := dg
		if ga > mv {
			mv = ga
		}
		if gb > mv {
			mv = gb
		}
		if sv > mv {
			mv = sv
		}
		if sources > 0 {
			// Seed-only cells were already counted as NGR entries by
			// the diagonal step; only sweep-computed cells count here.
			if sources >= 3 {
				interior++
			} else {
				boundary++
			}
		}
		alive := mv > 0 && mv >= rowB && mv >= colBound[j-1]
		if alive {
			if int(mv) >= ctx.h && sv < mv {
				// Seed cells at their own value were emitted by the
				// diagonal step; emit only improvements and sweep cells.
				em(i, j, mv)
			}
			out.push(j, mv, ga)
		}
		// Gb carry to column j+1.
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
		if gb > negInf {
			j++
			continue
		}
		// Next candidate column: the first parent contribution past j
		// (a cell at j feeds j+1 diagonally; otherwise the next stored
		// column) or the next seed, whichever is smaller.
		nj := farJ
		if hasCellAtJ {
			nj = j + 1
		} else {
			t := pi
			for t < np && pJs[t] <= j {
				t++
			}
			if t < np {
				nj = pJs[t]
			}
		}
		if si < len(seeds) && seeds[si].j < nj {
			nj = seeds[si].j
		}
		j = nj
	}
	if !ctx.mute {
		ctx.st.EntriesBoundary += boundary
		ctx.st.EntriesInterior += interior
	}
}

// refDenseBand is refMergedBand specialised to a contiguous,
// seedless parent row [lo, lo+np): cells index the parent arrays
// directly, with no column cursors or candidate derivation. Emission,
// score filtering and entry counting are identical to the general
// sweep.
func (ctx *searchCtx) refDenseBand(lo int32, pM, pGa []int32, deltaRow []int32, i int, em emitFn, out *bandTriple) {
	s := ctx.s
	open := int32(s.GapOpen + s.GapExtend)
	ext := int32(s.GapExtend)
	mq := int32(len(ctx.query))
	colBound := ctx.colBound
	rowB := ctx.rowBound(i)
	var boundary, interior int64
	np := int32(len(pM))

	gb := negInf
	limit := lo + np // hi+1
	if limit > mq {
		limit = mq
	}
	for j := lo; j <= limit; j++ {
		k := j - lo
		dg, ga := negInf, negInf
		sources := 0
		if k > 0 {
			dg = pM[k-1] + deltaRow[j-1]
			sources++
		}
		if k < np {
			ga = pM[k] + open
			sources++
			if pga := pGa[k]; pga > negInf && pga+ext > ga {
				ga = pga + ext
			}
		}
		if gb > negInf {
			sources++
		}
		mv := dg
		if ga > mv {
			mv = ga
		}
		if gb > mv {
			mv = gb
		}
		if sources >= 3 {
			interior++
		} else {
			boundary++
		}
		alive := mv > 0 && mv >= rowB && mv >= colBound[j-1]
		if alive {
			if int(mv) >= ctx.h {
				em(i, j, mv)
			}
			out.push(j, mv, ga)
		}
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
	// Gb tail past the parent run.
	for j := limit + 1; j <= mq && gb > negInf; j++ {
		boundary++
		mv := gb
		alive := mv >= rowB && mv >= colBound[j-1]
		if alive {
			if int(mv) >= ctx.h {
				em(i, j, mv)
			}
			out.push(j, mv, negInf)
		}
		ng := gb + ext
		if alive && mv+open > ng {
			ng = mv + open
		}
		if ng <= 0 {
			ng = negInf
		}
		gb = ng
	}
	if !ctx.mute {
		ctx.st.EntriesBoundary += boundary
		ctx.st.EntriesInterior += interior
	}
}
