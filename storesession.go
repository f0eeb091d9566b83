package alae

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/seq"
)

// validateStoreQuery rejects queries containing the member separator
// byte. The store's texts are T1 # T2 # … # Tn: a query holding the
// separator can align its '#' against a separator row of the text and
// match "across" members — a hit with no biological meaning that the
// gather step cannot distinguish from a genuine one (it rejects hits
// ENDING on separator rows, not hits crossing them mid-alignment).
// Such queries are always ingestion bugs (an unsplit multi-record
// FASTA, a stray formatting byte), so they are rejected at the search
// boundary with a descriptive error rather than answered wrongly.
func validateStoreQuery(query []byte) error {
	if i := bytes.IndexByte(query, seq.Separator); i >= 0 {
		return fmt.Errorf("alae: query byte %d is the member separator %q; a query must be a single sequence with no separator bytes", i, seq.Separator)
	}
	return nil
}

// storeLane is one scatter lane of a StoreSession: a Session over one
// generation's monolithic index. The K-way parallelism WITHIN a lane
// comes from the work-stealing family dispatcher (core.Session.
// SearchContext), not from more lanes: the query's grams are resolved
// once per generation, and K workers pull the resolved families.
type storeLane struct {
	gen  int // index into the bound view's generation list
	ix   *Index
	sess *Session
}

// StoreSession is a reusable scatter-gather serving lane over a Store:
// one search configuration answering query after query, holding one
// Session per generation (each of which owns pooled per-query state
// from the generation engine's session pool — see Session). The
// session binds to the store view current at each search and re-syncs
// itself after a mutation, reusing the lanes of every generation that
// survived (mutations never modify an existing generation's index, so
// surviving lanes stay valid). Like Session, a StoreSession is NOT
// safe for concurrent use; concurrency comes from many sessions over
// the shared store, which Store.Search manages automatically through
// per-configuration pools.
type StoreSession struct {
	st    *Store
	opts  SearchOptions
	s     Scheme
	view  *storeView  // the bound view; searches run against it
	lanes []storeLane // one per generation of the bound view
	stats []Stats     // per-lane scatter stats, reused
	ress  []*Result   // per-lane baseline fallback results, reused
	errs  []error     // per-lane scatter errors, reused

	closed bool
}

// OpenSession returns a scatter-gather session for one search
// configuration. Configuration errors surface here (see
// Index.OpenSession); one lane is opened per generation.
func (st *Store) OpenSession(opts SearchOptions) (*StoreSession, error) {
	s := opts.Scheme
	if s == (Scheme{}) {
		s = DefaultDNAScheme
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := validateSearchOptions(opts, s); err != nil {
		return nil, err
	}
	ss := &StoreSession{st: st, opts: opts, s: s}
	if err := ss.syncView(); err != nil {
		return nil, err
	}
	return ss, nil
}

// syncView binds the session to the store's current view, opening and
// closing lanes as the generation list demands. Lanes whose generation
// index survived the mutation (the common case: appends add
// generations, deletes only flip tombstones) are kept warm — matched
// by Index identity — so pooled sessions pay only for genuinely new or
// compacted-away generations. On error the session is left empty but
// reusable (the next sync retries from scratch).
func (ss *StoreSession) syncView() error {
	v := ss.st.currentView()
	if v == ss.view {
		return nil
	}
	old := make(map[*Index]*Session, len(ss.lanes))
	for _, ln := range ss.lanes {
		old[ln.ix] = ln.sess
	}
	lanes := make([]storeLane, 0, len(v.gens))
	var err error
	for gi, g := range v.gens {
		ix := g.ix
		sess := old[ix]
		if sess != nil {
			delete(old, ix)
		} else if sess, err = ix.OpenSession(ss.opts); err != nil {
			break
		}
		lanes = append(lanes, storeLane{gen: gi, ix: ix, sess: sess})
	}
	for _, sess := range old {
		sess.Close() // generations compacted away (or error path below)
	}
	if err != nil {
		for _, ln := range lanes {
			ln.sess.Close()
		}
		ss.lanes, ss.view, ss.stats, ss.ress, ss.errs = nil, nil, nil, nil, nil
		return err
	}
	ss.lanes, ss.view = lanes, v
	ss.stats = make([]Stats, len(lanes))
	ss.ress = make([]*Result, len(lanes))
	ss.errs = make([]error, len(lanes))
	return nil
}

// Search scatter-gathers one query across the store's generations. The
// threshold is resolved once against the WHOLE live store (length and
// alphabet of the live virtual concatenation); each generation
// resolves the query's grams ONCE against its monolithic index and
// dispatches the resolved fork families across K work-stealing lanes
// at that same H; and the gather drains every generation's collector
// table, in order, straight into the result — dropping hits that end on
// separator rows, inside tombstoned members, or whose score proves the
// alignment crossed in from another member (laneGather) — which comes
// out in global (TEnd, QEnd) order with nothing sorted.
// Results are identical to a monolithic index over the live
// concatenation, hit for hit and entry for entry, for EVERY K — K only
// partitions the resolved work, never the text — except for alignments
// that would cross a generation boundary's separator (the separator
// scores as a mismatch in the monolithic text; it does not exist
// between generations).
//
// StoreSession.Search does not consult the store's query cache — that
// is Store.Search's job — so it is also the cache-bypass path.
func (ss *StoreSession) Search(query []byte) (*StoreResult, error) {
	return ss.SearchContext(context.Background(), query)
}

// SearchContext is Search under a context: the context is shared by
// every lane of the scatter, so a deadline or cancellation aborts ALL
// lanes within their entry budgets and the context's own error is
// returned (never a per-lane wrapping — a cancelled scatter is the
// caller's doing, not any lane's). The session remains fully reusable
// after a cancelled search, and re-syncs to the store's current view
// first, so a session opened before a mutation searches the
// post-mutation store.
func (ss *StoreSession) SearchContext(cx context.Context, query []byte) (*StoreResult, error) {
	if ss.closed {
		return nil, fmt.Errorf("alae: Search on a closed StoreSession")
	}
	if err := ss.syncView(); err != nil {
		return nil, err
	}
	return ss.searchCurrent(cx, query)
}

// laneWorkers is the fork-family fan-out each generation search runs
// at: the store's K when set above 1, else the engine-level
// SearchOptions.Parallelism (which keeps the pre-refactor behaviour
// for unsharded stores, including its 0 = NumCPU default).
func (ss *StoreSession) laneWorkers() int {
	if k := ss.st.k; k > 1 {
		return k
	}
	return ss.opts.Parallelism
}

// laneGather maps one generation lane's hits, which arrive in the
// generation's (tEnd, qEnd) order, onto the live store's coordinates.
// Consecutive hits mostly end in the same member, so the member's range
// and its live-directory entry are looked up once per member, not once
// per hit.
type laneGather struct {
	tab   *seq.Table // the generation's members, tombstoned included
	live  []int      // the generation's member -> live index, -1 when tombstoned
	seqs  *seq.Table // the live directory
	match int        // the scheme's match score sa

	lo, hi int    // the generation-text range of the member of the last hit
	gm     int    // its live index, -1 when tombstoned
	start  int    // its start in the live concatenation
	name   string // its name
}

// append adds one lane hit to hits unless the gather rejects it: it
// ends on a separator row, in a tombstoned member, or scores more than
// its member has room for.
func (ga *laneGather) append(hits []SeqHit, tEnd, qEnd, score int) []SeqHit {
	if tEnd < ga.lo || tEnd >= ga.hi {
		lm, _, ok := ga.tab.Locate(tEnd, tEnd+1)
		if !ok {
			return hits // ends on a separator row: rejected here, at the gather
		}
		ga.lo = ga.tab.Start(lm)
		ga.hi = ga.lo + ga.tab.SeqLen(lm)
		if ga.gm = ga.live[lm]; ga.gm >= 0 {
			ga.start, ga.name = ga.seqs.Start(ga.gm), ga.seqs.Name(ga.gm)
		}
	}
	if ga.gm < 0 {
		return hits // tombstoned member: deleted, awaiting compaction
	}
	// Cross-member backstop: every aligned text row contributes at most
	// sa, so an alignment scoring `score` spans at least ⌈score/sa⌉ text
	// rows — if fewer rows fit between the member's start and the hit's
	// end, the alignment provably started in an earlier member across a
	// separator. The exact engines make such hits structurally
	// impossible (the separator is a trie barrier, core.Options), so
	// this only catches the baseline algorithms, which sweep the
	// concatenation without the barrier.
	local := tEnd - ga.lo
	if minLen := (score + ga.match - 1) / ga.match; local+1 < minLen {
		return hits
	}
	return append(hits, SeqHit{
		Hit:       Hit{TEnd: ga.start + local, QEnd: qEnd, Score: score},
		Member:    ga.gm,
		Name:      ga.name,
		LocalTEnd: local,
	})
}

// searchCurrent runs the scatter-gather against the already-bound
// view. Store.cachedSearch calls it directly after its own sync so the
// cache key's stamp and the computation describe the same view.
func (ss *StoreSession) searchCurrent(cx context.Context, query []byte) (*StoreResult, error) {
	if ss.closed {
		return nil, fmt.Errorf("alae: Search on a closed StoreSession")
	}
	if err := validateStoreQuery(query); err != nil {
		return nil, err
	}
	v := ss.view
	h, err := v.resolveThreshold(len(query), ss.opts, ss.s)
	if err != nil {
		return nil, err
	}
	// Scatter: every generation lane at the same pinned threshold, in
	// parallel when there is more than one generation. Each lane leaves
	// its hits resident in its session's collector (searchCollect);
	// baselines, which have no collector, fall back to a materialised
	// per-lane Result.
	lanes := ss.laneWorkers()
	if len(ss.lanes) == 1 {
		ss.stats[0], ss.ress[0], ss.errs[0] = ss.lanes[0].sess.searchCollect(cx, query, h, lanes)
	} else {
		var wg sync.WaitGroup
		for k := range ss.lanes {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				ss.stats[k], ss.ress[k], ss.errs[k] = ss.lanes[k].sess.searchCollect(cx, query, h, lanes)
			}(k)
		}
		wg.Wait()
	}
	if err := cx.Err(); err != nil {
		// The context died during the scatter: report ITS error, bare,
		// whatever subset of lanes happened to observe it. Partial
		// fallback results must not outlive the error path (collectors
		// are session-owned and reset by the next search).
		clear(ss.ress)
		return nil, err
	}
	for k, err := range ss.errs {
		if err != nil {
			clear(ss.ress)
			return nil, fmt.Errorf("alae: shard %d: %w", k, err)
		}
	}
	// Gather, streaming and sort-free. Each lane drains its collector in
	// the generation's (tEnd, qEnd) order; a member is one contiguous
	// coordinate range of exactly one generation, and the live directory
	// numbers members generation by generation in text order (buildView),
	// so draining the lanes in generation order appends hits in exactly
	// the global (TEnd, QEnd) order a monolithic search over the live
	// concatenation returns. Tombstoned members are dropped HERE: their
	// bytes are still indexed until a compaction purges them, but no hit
	// inside one survives the gather.
	out := &StoreResult{Threshold: h, Algorithm: ss.opts.Algorithm}
	total := 0
	for k := range ss.lanes {
		if res := ss.ress[k]; res != nil {
			total += len(res.Hits)
		} else {
			total += ss.lanes[k].sess.cs.Collector().Len()
		}
	}
	hits := make([]SeqHit, 0, total)
	for k := range ss.lanes {
		ln := &ss.lanes[k]
		ga := laneGather{tab: v.gens[ln.gen].tab, live: v.live[ln.gen], seqs: v.seqs, match: ss.s.Match}
		if res := ss.ress[k]; res != nil {
			for _, hh := range res.Hits {
				hits = ga.append(hits, hh.TEnd, hh.QEnd, hh.Score)
			}
			ss.ress[k] = nil // do not pin fallback results past the gather
		} else {
			ln.sess.cs.Collector().Drain(func(tEnd, qEnd, score int) {
				hits = ga.append(hits, tEnd, qEnd, score)
			})
		}
		out.Stats.add(ss.stats[k])
	}
	if cap(hits)-len(hits) > len(hits)/8 {
		// The gather rejected hits — tombstoned members held them. A
		// result may live on in the query cache, so it must not pin the
		// capacity they were counted into; but copying down whenever one
		// hit was rejected would allocate the result twice on most queries
		// of a store with deletes. Up to an eighth of the hits kept stays
		// as slack: a cached result pins at most 12.5% over its size.
		hits = append(make([]SeqHit, 0, len(hits)), hits...)
	}
	out.Hits = hits
	return out, nil
}

// Close closes every generation lane, handing their pooled state back
// to the engines. Idempotent; the session must not be used after.
func (ss *StoreSession) Close() {
	for _, ln := range ss.lanes {
		ln.sess.Close()
	}
	ss.lanes = nil
	ss.closed = true
}

// storeSearchAllStarted mirrors searchAllStarted for Store.SearchAll;
// test hook only.
var storeSearchAllStarted func(qi int)

// SearchAll runs many queries concurrently over the store with the
// given worker count (0 means one worker per query up to 8). Results
// come back in query order; the first error (lowest query index, same
// determinism contract as Index.SearchAll) cancels the remaining work
// and is returned wrapped with its query index. Each worker holds one
// StoreSession for its whole run, and every query goes through the
// query cache, so batches with repeated queries collapse into probes.
func (st *Store) SearchAll(queries [][]byte, opts SearchOptions, workers int) ([]*StoreResult, error) {
	return st.SearchAllContext(context.Background(), queries, opts, workers)
}

// SearchAllContext is SearchAll under a context: the context is shared
// by every worker, so a deadline or cancellation stops in-flight
// queries within their entry budgets, prevents unstarted queries from
// launching, and returns the context's own error (result slots of
// unfinished queries stay nil).
func (st *Store) SearchAllContext(cx context.Context, queries [][]byte, opts SearchOptions, workers int) ([]*StoreResult, error) {
	if workers <= 0 {
		workers = 8
	}
	workers = min(workers, len(queries))
	if workers == 0 {
		return nil, nil
	}
	// Warm the shared lazy structures once (domination indexes for the
	// ALAE engines) so workers do not race to build them redundantly.
	s := opts.Scheme
	if s == (Scheme{}) {
		s = DefaultDNAScheme
	}
	if opts.Algorithm == ALAE || opts.Algorithm == ALAEHybrid {
		for _, g := range st.currentView().gens {
			if _, err := g.ix.DominationIndexSize(s); err != nil {
				return nil, err
			}
		}
	}
	fp := optionsFingerprint(opts)
	pool := st.sessionPool(fp)
	results := make([]*StoreResult, len(queries))
	errs := make([]error, len(queries))
	var (
		wg       sync.WaitGroup
		cursor   atomic.Int64
		failedAt atomic.Int64 // lowest failing query index; len(queries) = none
		openOnce sync.Once
		openErr  error
	)
	failedAt.Store(int64(len(queries)))
	markFailed := func(qi int) {
		for {
			cur := failedAt.Load()
			if int64(qi) >= cur || failedAt.CompareAndSwap(cur, int64(qi)) {
				return
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ss *StoreSession
			if v := pool.Get(); v != nil {
				ss = v.(*StoreSession)
			} else {
				var err error
				if ss, err = st.OpenSession(opts); err != nil {
					// Configuration errors apply to every query; see
					// Index.SearchAll for the claim-and-mark rationale.
					openOnce.Do(func() { openErr = err })
					qi := int(cursor.Add(1)) - 1
					markFailed(min(qi, len(queries)-1))
					return
				}
			}
			defer pool.Put(ss)
			for {
				if failedAt.Load() < int64(len(queries)) {
					return
				}
				qi := int(cursor.Add(1)) - 1
				if qi >= len(queries) {
					return
				}
				if storeSearchAllStarted != nil {
					storeSearchAllStarted(qi)
				}
				results[qi], errs[qi] = st.cachedSearch(cx, ss, fp, queries[qi])
				if errs[qi] != nil {
					markFailed(qi)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := cx.Err(); err != nil {
		// The batch was cancelled: the context's error outranks any
		// per-query failure it induced.
		return nil, err
	}
	if fa := int(failedAt.Load()); fa < len(queries) {
		if errs[fa] != nil {
			return nil, fmt.Errorf("alae: store query %d: %w", fa, errs[fa])
		}
		return nil, openErr
	}
	return results, nil
}
