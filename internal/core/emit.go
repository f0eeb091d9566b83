package core

// The batched emission path. Band kernels report threshold-reaching
// cells through small per-context staging buffers (align.RunStage) as
// row runs — a copy per emitting stretch of a band row, an append per
// lone cell, no table probe, no occurrence resolution. The emit
// contexts flush staged runs in bulk at natural ownership boundaries
// (frame pop, child-edge end, linear-walk end): a flush resolves the
// path node's occurrences once, fans each run out per occurrence,
// filters it through the per-search diagonal dominance table, and lands
// the surviving cells in the collector via the tile-batched AddRun —
// one probe per 16 columns of a run instead of one per cell.
//
// The dominance table is a flat direct-mapped slab keyed by alignment
// diagonal (tEnd − qEnd): each cell remembers the best-scoring
// (tEnd, qEnd) pair last forwarded on its diagonal. An emission is
// suppressed ONLY when the stored pair is exactly the same end pair
// with an equal or better score — a provable collector no-op, so hit
// sets are byte-identical with suppression on or off. Duplicate
// emissions are common by construction: gap regions that survive a
// trie branch are recomputed per branch, seed cells re-emit as band
// improvements, and hybrid copy-phase columns re-emit reused cells.
// The table is re-armed per fork family by an O(1) epoch bump, which
// also makes the Emitted/Suppressed counters independent of how
// families are scheduled across workers.

const (
	diagSlabBits = 12
	diagSlabLen  = 1 << diagSlabBits
	diagSlabMask = diagSlabLen - 1
)

// diagCell is one dominance-table entry: the packed (tEnd, qEnd) pair
// last forwarded on this diagonal, and its arming epoch packed above
// its score. Epochs only grow (the slab is cleared on wrap) and scores
// are ≥ H ≥ 1, so an entry of an earlier epoch compares below any
// current one and validity needs no test of its own.
type diagCell struct {
	key uint64 // tEnd<<32 | qEnd
	es  uint64 // epoch<<32 | score
}

// armDiag re-arms the diagonal dominance table for one fork family: an
// epoch bump invalidates every entry in O(1); the slab is only cleared
// on the (effectively unreachable) epoch wrap.
func (ctx *searchCtx) armDiag() {
	ws := ctx.ws
	if ws.diag == nil {
		ws.diag = make([]diagCell, diagSlabLen)
	}
	ws.diagEpoch++
	if ws.diagEpoch == 0 {
		clear(ws.diag)
		ws.diagEpoch = 1
	}
}

// forwardRun sends one occurrence-resolved row run — consecutive query
// end positions qEnd0, qEnd0+1, ... at text end tEnd — through the
// dominance filter and on to the collector in maximal admitted
// sub-runs. Suppressed cells are exact repeats of pairs this worker
// already forwarded with an equal or better score, so dropping them
// cannot change the collector's content.
func (ctx *searchCtx) forwardRun(tEnd, qEnd0 int, scores []int32) {
	if ctx.e.opts.DisableEmitSuppression {
		ctx.c.AddRun(tEnd, qEnd0, scores)
		ctx.st.EmittedHits += int64(len(scores))
		return
	}
	diag := ctx.ws.diag
	epoch := uint64(ctx.ws.diagEpoch) << 32
	key := uint64(uint32(tEnd))<<32 | uint64(uint32(qEnd0))
	di := uint32(tEnd - qEnd0)
	start, kept := 0, 0
	for idx, sc := range scores {
		d := &diag[di&diagSlabMask]
		es := epoch | uint64(uint32(sc))
		if d.key == key && d.es >= es {
			if idx > start {
				ctx.c.AddRun(tEnd, qEnd0+start, scores[start:idx])
				kept += idx - start
			}
			start = idx + 1
		} else {
			d.key, d.es = key, es
		}
		key++
		di--
	}
	if len(scores) > start {
		ctx.c.AddRun(tEnd, qEnd0+start, scores[start:])
		kept += len(scores) - start
	}
	ctx.st.EmittedHits += int64(kept)
	ctx.st.SuppressedEmissions += int64(len(scores) - kept)
}
