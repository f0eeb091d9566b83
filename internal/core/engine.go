// Package core implements ALAE, the paper's contribution: exact local
// alignment with affine gaps over a compressed suffix array, sped up
// by a family of filters and by score reuse.
//
//   - Length filtering (Theorem 1) caps the rows of every matrix at
//     Lmax and is applied as a traversal depth bound.
//   - Score filtering (Theorem 2) kills entries that provably cannot
//     reach the threshold H with the query columns and rows remaining.
//   - q-prefix filtering (Theorem 3) only starts fork areas where a
//     q-gram of the query exactly matches the text, splitting each
//     fork into an exact-match region (assigned scores), a no-gap
//     region (Equation 3, one-source recurrence), and a gap region
//     entered at the first gap-open entry (FGOE).
//   - Global filtering (§3.2) skips whole forks by q-prefix domination
//     (Lemma 1), answered per query column by the FM-index itself.
//   - Score reuse (§4) is provided by the Hybrid engine mode, which
//     computes gap regions column-wise (calMatrixByColumn) and copies
//     columns between forks whose FGOEs share a row, using the
//     common-prefix tree of Algorithm 2.
//
// Both engine modes produce exactly the hits of a full Smith-Waterman
// sweep whenever H ≥ Scheme.MinThreshold(), which E-value-derived
// thresholds always satisfy.
package core

import (
	"sync"

	"repro/internal/align"
	"repro/internal/strie"
)

// Mode selects the search engine variant.
type Mode int

const (
	// ModeDFS traverses the emulated suffix trie row-by-row, sharing
	// common path prefixes (the default and fastest mode).
	ModeDFS Mode = iota
	// ModeHybrid is Algorithm 3: horizontal NGR passes to find FGOEs,
	// then vertical gap-region passes with cross-fork score reuse.
	ModeHybrid
)

// Options configures an Engine. The zero value enables every filter,
// matching the paper's ALAE configuration; individual filters can be
// switched off for the ablation experiments.
type Options struct {
	Mode Mode

	// DisableLengthFilter turns Theorem 1 off (the traversal is then
	// bounded only by score positivity).
	DisableLengthFilter bool
	// DisableScoreFilter turns Theorem 2 off.
	DisableScoreFilter bool
	// DisableDomination turns the Lemma 1 global filter off.
	DisableDomination bool
	// DisableEmitSuppression turns the emission path's diagonal
	// dominance filter off, so every occurrence-resolved cell reaches
	// the collector. The hit set is identical either way — the filter
	// only drops provable collector no-ops — which the emission tests
	// verify against this switch.
	DisableEmitSuppression bool
	// DisableCopyReuse turns the hybrid vertical phase's emitted
	// watermark off, so gap regions recomputed across trie branches
	// re-forward their shared-prefix rows instead of counting them as
	// CopiedEmissions. The hit set is identical either way — copied
	// rows are provable collector no-ops — which the copy-reuse
	// property test verifies against this switch.
	DisableCopyReuse bool
	// BarrierByte, when non-zero, is a hard reset row in every band
	// kernel: trie edges labelled with it are never descended, so no
	// alignment path — diagonal or gap — spans an occurrence of the
	// byte (equivalently, every DP cell on a barrier row is −∞ and
	// vertical gaps may not cross it). Multi-member stores set it to
	// their member separator so a hit can never bridge two members.
	// Queries are the caller's responsibility: the q-gram resolution
	// step matches text substrings wholesale, so callers must reject
	// queries containing the byte (the store does) or barrier-crossing
	// gram paths could slip past the edge skips.
	BarrierByte byte
}

// Engine is an ALAE search engine over one indexed text. Searches are
// safe to run concurrently.
type Engine struct {
	trie *strie.Trie
	opts Options

	sessPool sync.Pool // *Session, reused across queries and callers
}

// New indexes text and returns an engine.
func New(text []byte, opts Options) *Engine {
	return NewFromTrie(strie.New(text), opts)
}

// NewFromTrie wraps an existing emulated suffix trie (shareable with
// the BWT-SW engine).
func NewFromTrie(t *strie.Trie, opts Options) *Engine {
	return &Engine{trie: t, opts: opts}
}

// buildColBoundsInto precomputes Theorem 2 as table lookups: a cell
// (i, j) with score v survives iff v ≥ h − min(m−j, Lmax−i)·sa, i.e.
// iff v clears BOTH the column bound h−(m−j)·sa (this table,
// colBound[j-1]) and the row bound h−(Lmax−i)·sa (one multiply per
// row, rowBound). With the filter disabled both collapse to negInf and
// never fire. dst is reused when it has the capacity.
func buildColBoundsInto(dst []int32, m, h int, s align.Scheme, disabled bool) []int32 {
	colBound := resize(dst, m)
	if disabled {
		for j := range colBound {
			colBound[j] = negInf
		}
		return colBound
	}
	for j := 1; j <= m; j++ {
		colBound[j-1] = int32(h - (m-j)*s.Match)
	}
	return colBound
}

// buildDeltaTableInto precomputes δ(a, b) for every edge letter of the
// text against every query column: delta[k*m+j] scores the letter with
// dense code k against 0-based query position j. Building it costs σ·m
// — a few microseconds — and removes a call plus two byte loads from
// every diagonal step and gap-region cell. dst is reused when it has
// the capacity.
func buildDeltaTableInto(dst []int32, letters, query []byte, s align.Scheme) []int32 {
	m := len(query)
	match, mismatch := int32(s.Match), int32(s.Mismatch)
	delta := resize(dst, len(letters)*m)
	for k, ch := range letters {
		row := delta[k*m : (k+1)*m]
		for j, qc := range query {
			if ch == qc {
				row[j] = match
			} else {
				row[j] = mismatch
			}
		}
	}
	return delta
}

// barrierCode resolves Options.BarrierByte to its dense letter code in
// the indexed text's alphabet, or -1 when no barrier is configured or
// the byte never occurs in the text (then no trie edge can carry it).
func barrierCode(letters []byte, b byte) int {
	if b == 0 {
		return -1
	}
	for k, ch := range letters {
		if ch == b {
			return k
		}
	}
	return -1
}

// resize returns dst resized to n elements, reallocating only when the
// capacity is short.
func resize[T any](dst []T, n int) []T {
	if cap(dst) < n {
		return make([]T, n)
	}
	return dst[:n]
}

// searchCtx carries one search worker's state. In a parallel search
// each worker owns one searchCtx with a private collector, stats and
// workspace; the engine merges them afterwards.
type searchCtx struct {
	e         *Engine
	query     []byte
	s         align.Scheme
	h         int
	c         *align.Collector
	st        *Stats
	lmax      int
	gOpen     int     // |sg+ss|, the FGOE crossing level
	delta     []int32 // δ table: delta[k*m+j] = δ(letter k, query[j]); read-only, shared
	colBound  []int32 // Theorem 2 column bounds: h − (m−j)·sa, or negInf when disabled
	dominated []bool  // Lemma 1 per 0-based column (markDominated); nil when disabled
	mute      bool    // suppress gap-region entry counting (hybrid oracles)
	barrier   int     // dense code of Options.BarrierByte, or -1 (no barrier)

	// Cancellation state (cancel.go). done is shared by every worker of
	// one search; stopped and nextPoll are per-worker (each worker owns
	// its searchCtx copy).
	done     <-chan struct{}
	stopped  bool
	nextPoll int64

	ws *workspace
}

// deltaRow returns the δ row of the letter with dense code k, indexed
// by 0-based query position.
func (ctx *searchCtx) deltaRow(k int) []int32 {
	m := len(ctx.query)
	return ctx.delta[k*m : (k+1)*m]
}

// rowBound is Theorem 2's row bound for matrix row i: a cell there
// needs at least h − (Lmax−i)·sa (negInf when the filter is off). A
// cell survives iff it clears rowBound(i) AND colBound[j-1].
func (ctx *searchCtx) rowBound(i int) int32 {
	if ctx.e.opts.DisableScoreFilter {
		return negInf
	}
	return int32(ctx.h - (ctx.lmax-i)*ctx.s.Match)
}

// workspace is the reusable traversal scratch of one worker. The DFS
// engine's entire per-gram state lives here as flat structure-of-arrays
// slabs — the explicit walk stack (frames), the live-diagonal stack
// (diags), the merged gap-region band slab (slab) — plus the per-gram
// scratch (initial forks, survivors, seeds, merge runs, occurrence
// buffers). Everything is sized by the first searches and reused, so
// the per-gram path (processGram → dfsGram → advanceMergedBand)
// allocates nothing in steady state. The hybrid engine keeps its
// recursive child-enumeration buffer pool. Workspaces belong to a
// Session, one per worker lane, and pool with it.
type workspace struct {
	pool []*childScratch // hybrid engine's per-level buffers

	frames    []walkFrame   // explicit DFS stack; frame buffers persist across pushes
	diags     []ngrFork     // flat stack of live no-gap diagonals, framed by walkFrame ranges
	slab      bandTriple    // flat SoA merged-band slab, framed by walkFrame ranges
	lin       [2]bandTriple // ping-pong band rows for single-occurrence linear walks
	seeds     []seedCell    // per-child FGOE seeds, rebuilt for every edge
	forks     []fork        // per-gram initial forks; element-wise reuse keeps band capacity
	survivors []int32       // per-gram filter survivors
	occBuf    []int         // gram-node occurrence buffer
	runs      []mergeRun    // fork-band k-way merge cursors

	hb [2]bandPair  // ping-pong rows for newForkInto's pre-q bands
	hs *hybridState // hybrid engine per-search state (frames, arenas), lazily built

	diag      []diagCell     // diagonal dominance table (emit.go), lazily sized
	diagEpoch uint32         // current arming epoch; bumped per fork family
	rowQ      align.RunStage // staging for the gram node's own row-q emissions
}

// scrub drops the per-search pointers the scratch captured — emit
// contexts point at the search's collector and query, the hybrid state
// at its whole searchCtx — so an idle pooled workspace pins only its
// own buffers, never the last caller's collector or query.
// Retained locate buffers survive (they are workspace-owned). Staging
// buffers are emptied unconditionally: a cancelled search may abandon
// staged runs mid-walk, and they must not leak into the next query.
func (ws *workspace) scrub() {
	for i := range ws.frames {
		em := &ws.frames[i].em
		em.ctx, em.node, em.occ = nil, strie.Node{}, nil
		em.stage.Reset()
	}
	ws.rowQ.Reset()
	if ws.hs != nil {
		ws.hs.ctx = nil
		ws.hs.stage.Reset()
		ws.hs.resetVerts()
		if ws.hs.cpt != nil {
			ws.hs.cpt.Reset(nil) // its p field held the query
		}
	}
}

// childScratch holds one recursion level's child-enumeration buffers
// (los/his are the rank buffers backward search fills) for the hybrid
// engine's recursive descent. The flat DFS engine keeps this state in
// its walkFrames instead.
type childScratch struct {
	nodes    []strie.Node
	los, his []int32
}

// scratch pops a buffer set sized for the trie's alphabet.
func (ctx *searchCtx) scratch() *childScratch {
	if n := len(ctx.ws.pool); n > 0 {
		sc := ctx.ws.pool[n-1]
		ctx.ws.pool = ctx.ws.pool[:n-1]
		return sc
	}
	sigma := ctx.e.trie.Index().Sigma()
	return &childScratch{
		nodes: make([]strie.Node, sigma),
		los:   make([]int32, sigma),
		his:   make([]int32, sigma),
	}
}

func (ctx *searchCtx) release(sc *childScratch) {
	ctx.ws.pool = append(ctx.ws.pool, sc)
}

// minGainOK applies Theorem 2: can a cell at (row i, 1-based column j)
// with the given score still reach h? The future gain is bounded by
// sa times the matches still possible, which need both query columns
// and rows: min(m−j, Lmax−i).
func (ctx *searchCtx) minGainOK(score int32, i int, j int32) bool {
	if ctx.e.opts.DisableScoreFilter {
		return true
	}
	remQ := len(ctx.query) - int(j)
	remRows := ctx.lmax - i
	rem := min(remQ, remRows)
	if rem < 0 {
		rem = 0
	}
	return int(score)+rem*ctx.s.Match >= ctx.h
}

// processGram runs one pre-resolved fork family: every fork whose
// q-prefix is this gram, over the whole subtree of the gram's trie
// node. Gram resolution — and the absent-gram accounting — happened in
// resolveFamilies. The gram node's occurrence list is located lazily,
// at most once per family.
func (ctx *searchCtx) processGram(fam *gramFamily) {
	if ctx.cancelled(0) {
		return
	}
	node, gram, cols := fam.node, fam.gram, fam.cols
	occ := ctx.ws.occBuf[:0] // lazily located occurrences of the gram
	occGetter := func() []int {
		if len(occ) == 0 {
			occ = ctx.e.trie.OccurrencesAppend(node, occ)
			ctx.ws.occBuf = occ
		}
		return occ
	}

	survivors := ctx.ws.survivors[:0]
	for _, col0 := range cols {
		if ctx.dominated != nil && ctx.dominated[col0] {
			ctx.st.ForksDominated++
			continue
		}
		survivors = append(survivors, col0)
		ctx.st.ForksStarted++
		ctx.st.EntriesEMR += int64(len(gram))
	}
	ctx.ws.survivors = survivors
	if len(survivors) == 0 {
		return
	}
	ctx.armDiag() // fresh dominance epoch: suppression never crosses families
	switch ctx.e.opts.Mode {
	case ModeHybrid:
		ctx.hybridGram(node, gram, survivors)
	default:
		ctx.dfsGram(node, gram, survivors, occGetter)
	}
}
