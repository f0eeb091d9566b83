package alae

import (
	"bytes"
	"context"
	"fmt"
	"sync"

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

// storeSession is Store.Search's scatter-gather state for one search
// configuration: the store view it is bound to, one lane per generation
// of that view (lanes[k] searches gens[k]'s index), and the scatter's
// per-lane scratch. Store keeps warm sessions in per-options pools. The
// parallelism WITHIN a lane comes from the work-stealing family
// dispatcher (core.Session.SearchContext), not from more lanes: the
// query's grams are resolved once per generation, and
// SearchOptions.Parallelism workers pull the resolved families. A
// storeSession is NOT safe for concurrent use.
type storeSession struct {
	st    *Store
	opts  SearchOptions
	s     Scheme     // opts' scheme, resolved by resolveScheme
	view  *storeView // the bound view; searches run against it
	lanes []*lane    // one per generation of the bound view
	stats []Stats    // per-lane scatter stats, reused
	errs  []error    // per-lane scatter errors, reused
}

// syncView binds the session to the store's current view, opening and
// releasing lanes as the generation list demands. Mutations never
// modify an existing generation's index, so the lanes of every
// generation that survived (the common case: appends add generations,
// deletes only flip tombstones) are kept warm — matched by Index
// identity — and pooled sessions survive mutations.
func (ss *storeSession) syncView() {
	v := ss.st.currentView()
	if v == ss.view {
		return
	}
	old := make(map[*Index]*lane, len(ss.lanes))
	for _, ln := range ss.lanes {
		old[ln.ix] = ln
	}
	lanes := make([]*lane, len(v.gens))
	for gi, g := range v.gens {
		if lanes[gi] = old[g.ix]; lanes[gi] != nil {
			delete(old, g.ix)
		} else {
			lanes[gi] = g.ix.newLane(ss.opts, ss.s)
		}
	}
	for _, ln := range old {
		ln.release() // generations compacted away
	}
	ss.lanes, ss.view = lanes, v
	ss.stats = make([]Stats, len(lanes))
	ss.errs = make([]error, len(lanes))
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

// search scatter-gathers one query across the generations of the
// bound view. The threshold is resolved once against the WHOLE live
// store (length and alphabet of the live virtual concatenation); each
// generation's lane resolves the query's grams ONCE against its
// monolithic index and dispatches the resolved fork families across
// SearchOptions.Parallelism work-stealing workers at that same H; and
// the gather drains every lane's table, in order, straight into the
// result — dropping hits that end on separator rows, inside tombstoned
// members, or whose score proves the alignment crossed in from another
// member (laneGather) — which comes out in global (TEnd, QEnd) order
// with nothing sorted. Results are identical to a monolithic index over
// the live concatenation, hit for hit and entry for entry, at EVERY
// Parallelism — the workers only share out the resolved work, never the
// text — except for alignments that would cross a generation
// boundary's separator (the separator scores as a mismatch in the
// monolithic text; it does not exist between generations).
//
// Every lane shares the context, so a cancellation aborts them all and
// the context's own error is returned, never a per-lane wrapping; the
// session stays reusable. search does not consult the query cache:
// Store.cachedSearch calls it after its own sync, so the cache key's
// stamp and the computation describe the same view.
func (ss *storeSession) search(cx context.Context, query []byte) (*StoreResult, error) {
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
	// its hits resident in its table.
	workers := ss.opts.Parallelism
	if len(ss.lanes) == 1 {
		ss.stats[0], ss.errs[0] = ss.lanes[0].search(cx, query, h, workers)
	} else {
		var wg sync.WaitGroup
		for k, ln := range ss.lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ss.stats[k], ss.errs[k] = ln.search(cx, query, h, workers)
			}()
		}
		wg.Wait()
	}
	if err := cx.Err(); err != nil {
		// The context died during the scatter: report ITS error, bare,
		// whatever subset of lanes happened to observe it.
		return nil, err
	}
	for k, err := range ss.errs {
		if err != nil {
			return nil, fmt.Errorf("alae: generation %d: %w", v.gens[k].id, err)
		}
	}
	// Gather, streaming and sort-free. Each lane drains its table in the
	// generation's (tEnd, qEnd) order; a member is one contiguous
	// coordinate range of exactly one generation, and the live directory
	// numbers members generation by generation in text order (buildView),
	// so draining the lanes in generation order appends hits in exactly
	// the global (TEnd, QEnd) order a monolithic search over the live
	// concatenation returns. Tombstoned members are dropped HERE: their
	// bytes are still indexed until a compaction purges them, but no hit
	// inside one survives the gather.
	out := &StoreResult{Threshold: h, Algorithm: ss.opts.Algorithm}
	total := 0
	for _, ln := range ss.lanes {
		total += ln.coll.Len()
	}
	hits := make([]SeqHit, 0, total)
	for k, ln := range ss.lanes {
		ga := laneGather{tab: v.gens[k].tab, live: v.live[k], seqs: v.seqs, match: ss.s.Match}
		ln.coll.Drain(func(tEnd, qEnd, score int) {
			hits = ga.append(hits, tEnd, qEnd, score)
		})
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

// SearchAll is Index.SearchAll over the store, with the same worker
// count, result order and error contract. Each worker holds one pooled
// store session for its whole run, and every query goes through the
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
	fp := optionsFingerprint(opts)
	// Made past searchAll's options gate: rejected options leave no pool.
	pool := sync.OnceValue(func() *sync.Pool { return st.sessionPool(fp) })
	return searchAll(cx, opts, len(queries), workers, "store query",
		func(s Scheme) *storeSession { return st.pooledSession(pool(), opts, s) },
		func(ss *storeSession, qi int) (*StoreResult, error) { return st.cachedSearch(cx, ss, fp, queries[qi]) },
		func(ss *storeSession) { pool().Put(ss) })
}
