package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/align"
	"repro/internal/qgram"
	"repro/internal/strie"
)

// Session owns every query-specific structure of a search: the q-gram
// inverted index of the query (an open-addressing gram table re-armed
// in place — qgram.Index.Rearm), the δ score table, the Theorem 2
// bound tables, the resolved fork families with their backing gram
// buffer, the per-column domination flags with their memo, the
// traversal workspace, the search context and statistics,
// the result table the public search surfaces collect into, and (for
// parallel searches) the per-worker collector shards. A session is
// re-armed in place for each query, so in a serving loop — one index
// answering query after query — a warm sequential search performs zero
// allocations end to end (TestSessionSearchAllocFree).
//
// A Session is NOT safe for concurrent use: it is one serving lane.
// Concurrency comes from running many sessions against the shared
// engine, whose one structure, the trie, is read-only and safe to
// share. Engine.AcquireSession and Session.Release pool sessions so
// bursty callers reuse lanes instead of building new ones.
type Session struct {
	e *Engine

	qidx     qgram.Index // the query's gram table, re-armed in place
	delta    []int32     // δ table backing, rebuilt per query
	colBound []int32     // Theorem 2 column bounds backing
	fams     []gramFamily
	gramBuf  []byte
	resNodes []strie.Node // resolution prefix stack (resolve.go)

	colFam    []int32 // markDominated's scratch: each column's family,
	domMemo   []uint8 // its (family, next letter) memo,
	dominated []bool  // and the per-column flags the workers read

	ws []*workspace // per-worker traversal workspaces; ws[0] is the sequential lane's

	// coll is the session's result table (Collector). It pools with the
	// session, so a caller that searches into it meets a table still
	// warm-sized from the last query instead of growing a fresh one.
	coll *align.Collector

	// stats and ctx back the sequential search path: keeping them on
	// the session (instead of stack variables whose addresses escape
	// into the context) is what lets a warm SearchContext run without
	// a single allocation — see TestSessionSearchAllocFree.
	stats Stats
	ctx   searchCtx

	// Parallel-search state, sized to the widest search seen. cursor is
	// the work-stealing family cursor (parallel.go); it lives here so a
	// parallel search does not allocate it.
	shards *align.ShardedCollector
	wstats []Stats
	cursor atomic.Int64
}

// errQueryTooShort is the shared diagnostic for queries the q-gram
// engines cannot start a fork from: qgram.New would emit zero grams
// (no window of length q fits), so a search would silently return an
// empty hit set — almost always a caller bug (truncated input, wrong
// scheme). Callers that want the degenerate answer can use the
// Smith-Waterman baseline, which has no gram-length floor.
func errQueryTooShort(m, q int, s align.Scheme) error {
	return fmt.Errorf("core: query length %d is shorter than the scheme's gram length q=%d (scheme %v); the q-gram engines cannot search it", m, q, s)
}

// ResolveGrams runs only the gram-resolution stage of a search: every
// distinct q-gram of query is resolved against the trie by the
// prefix-shared walk and the number of present families is returned,
// with the resolution counters (ForksConsidered/Absent) in st. This is
// the isolation surface the benchmark's resolve layer and
// BenchmarkGramResolution time; the family count is layout-invariant,
// which is its exactness gate.
func (ses *Session) ResolveGrams(query []byte, s align.Scheme) (families int, st Stats, err error) {
	q := s.Q()
	st.Q = q
	if len(query) < q {
		return 0, st, errQueryTooShort(len(query), q, s)
	}
	if err := ses.qidx.Rearm(query, q, ses.e.trie.Letters()); err != nil {
		return 0, st, err
	}
	return len(ses.resolveFamilies(&ses.qidx, &st)), st, nil
}

// AcquireSession returns a pooled session (or a fresh one) for this
// engine. Callers re-arm it per query via Session.SearchContext and
// hand it back with Release.
func (e *Engine) AcquireSession() *Session {
	if s, ok := e.sessPool.Get().(*Session); ok {
		return s
	}
	return &Session{e: e, ws: []*workspace{{}}, coll: align.NewCollector()}
}

// Collector returns the session's own result table for the caller to
// Reset, pass to a search as c and drain before Release; searches never
// touch it otherwise.
func (ses *Session) Collector() *align.Collector { return ses.coll }

// Release returns the session to the engine's pool.
func (ses *Session) Release() { ses.e.sessPool.Put(ses) }

// SearchLanes is SearchContext. It survives only because the
// benchmark's lane-scaling probe (bench/layers.go) calls it by this
// name; there is one dispatcher (parallel.go), so lanes are workers.
func (ses *Session) SearchLanes(cx context.Context, query []byte, s align.Scheme, h int, c *align.Collector, lanes int) (Stats, error) {
	return ses.SearchContext(cx, query, s, h, c, lanes)
}

// SearchContext reports every end pair (i, j) whose best
// local-alignment score reaches h into c and returns work statistics;
// it is the one way to run a core search: AcquireSession, then
// SearchContext per query, then Release. It returns an error when the
// scheme is invalid or h is below the scheme's MinThreshold (the
// q-prefix filter would lose pure-match alignments shorter than q;
// E-value-derived thresholds are always far above).
//
// The q-gram fork families are dispatched across up to workers
// goroutines (0 or negative means runtime.NumCPU(); 1 is the
// sequential engine). Fork families are independent by construction —
// each owns one gram's subtree and one column set — so workers pull
// families from a shared queue, collect hits into private collector
// shards, and the results merge by max-score, producing exactly the
// sequential engine's hit set and entry counts regardless of
// scheduling.
//
// The session's buffers are re-armed in place, the engine's shared
// structures are only read, and hits land in c. In steady state — a
// warm session answering a repeated query shape sequentially — the
// whole path performs zero allocations (TestSessionSearchAllocFree);
// only the parallel fan-out allocates its worker contexts and
// goroutines.
//
// The traversal loops poll cx's done channel at entry-budget
// checkpoints (cancel.go), so a deadline or cancellation aborts a
// running search within a bounded number of calculated entries per
// worker. On cancellation the context's error is returned, the partial
// statistics describe the work actually done, and the collector holds
// a partial (meaningless) hit set the caller must discard; the session
// itself remains fully reusable — the next search re-arms it exactly
// as after a completed query. A background (non-cancellable) context
// adds no per-entry overhead: the done channel is nil and every
// checkpoint is one field read.
func (ses *Session) SearchContext(cx context.Context, query []byte, s align.Scheme, h int, c *align.Collector, workers int) (Stats, error) {
	e := ses.e
	if err := s.Validate(); err != nil {
		return Stats{}, err
	}
	if minH := s.MinThreshold(); h < minH {
		return Stats{}, fmt.Errorf("core: threshold %d below the exactness floor %d for scheme %v", h, minH, s)
	}
	q := s.Q()
	ses.stats = Stats{}
	st := &ses.stats
	st.Threshold, st.Q = h, q
	m := len(query)
	if e.opts.DisableLengthFilter {
		st.Lmax = s.Lmax(m, 1) // positivity bound only
	} else {
		st.Lmax = s.Lmax(m, h)
	}
	if m < q {
		// The empty set happens to be exact here — a query of m < q
		// characters scores at most m·sa < MinThreshold ≤ h — but it is
		// diagnosed instead of returned; see errQueryTooShort.
		return *st, errQueryTooShort(m, q, s)
	}
	if e.trie.Index().Len() == 0 {
		return *st, nil
	}

	if err := ses.qidx.Rearm(query, q, e.trie.Letters()); err != nil {
		return *st, err
	}
	// Resolve every distinct gram by one prefix-shared trie pass (see
	// resolve.go); absent grams die here, so the scheduler and the
	// per-family filters only ever see live trie nodes.
	families := ses.resolveFamilies(&ses.qidx, st)
	if len(families) == 0 {
		return *st, nil
	}
	var dominated []bool
	if !e.opts.DisableDomination {
		dominated = ses.markDominated(query, families, q)
	}
	// The δ(edge letter, query column) score table: the inner sweeps
	// index it instead of calling Scheme.Delta per cell. Shared
	// read-only by every worker.
	ses.delta = buildDeltaTableInto(ses.delta, e.trie.Letters(), query, s)
	ses.colBound = buildColBoundsInto(ses.colBound, m, h, s, e.opts.DisableScoreFilter)

	// base carries everything the worker contexts share; collector,
	// stats and workspace are lane-specific and filled in per lane. A
	// plain value (not a closure) so the sequential path stays
	// allocation-free.
	base := searchCtx{
		e: e, query: query, s: s, h: h,
		lmax:      st.Lmax,
		gOpen:     -(s.GapOpen + s.GapExtend), // |sg+ss|
		delta:     ses.delta,
		colBound:  ses.colBound,
		dominated: dominated,
		barrier:   barrierCode(e.trie.Letters(), e.opts.BarrierByte),
		done:      cx.Done(), // nil for background contexts: checkpoints are free
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	ses.searchFamilies(families, base, workers, c, st)
	if err := cx.Err(); err != nil {
		return *st, err
	}
	return *st, nil
}
