package alae

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// Session is a reusable serving lane over an Index: one configuration
// (algorithm, scheme, filters, parallelism) answering query after
// query. The session owns every query-specific structure — the q-gram
// inverted index, δ score table, bound tables, traversal workspace,
// result collector and (for parallel searches) the per-worker
// collector shards — through its pooled core session, and re-arms them
// in place per call, so a serving loop allocates only the hit slices it
// returns once the buffers are warm. The heavy shared
// structures (trie, domination index) belong to the Index's engines
// and are only read.
//
// A Session is NOT safe for concurrent use. Open one per serving
// goroutine; sessions of the same Index share the engines, which are
// concurrency-safe. Close returns the underlying
// pooled state so later sessions (and plain Index.Search calls, which
// draw from the same pool) reuse it.
type Session struct {
	ix     *Index
	opts   SearchOptions
	s      Scheme
	cs     *core.Session // nil for the baseline algorithms
	closed bool
}

// OpenSession returns a session for the given search configuration.
// Configuration errors — an invalid scheme, negative Threshold, EValue
// or Parallelism, an alphabet size of 1 or below 0, an unknown
// algorithm, a baseline-incompatible scheme — surface here for every
// algorithm, not on the first query; for ALAE the engine is
// additionally bound eagerly. Baseline algorithms (BWT-SW, BLAST,
// Smith-Waterman) are stateless per query; their sessions hold no
// pooled state.
func (ix *Index) OpenSession(opts SearchOptions) (*Session, error) {
	s, err := resolveScheme(opts)
	if err != nil {
		return nil, err
	}
	ses := &Session{ix: ix, opts: opts, s: s}
	if opts.Algorithm == ALAE {
		ses.cs = ix.alaeEngine(opts).AcquireSession()
	}
	return ses, nil
}

// Search runs one query through the session; results are identical to
// Index.Search with the session's options, whether the session is
// fresh or re-armed and whatever ran through it before — including the
// rejection of queries shorter than the scheme's gram length (see
// Index.Search). A closed session errors rather than silently
// degrading to one-shot searches.
func (ses *Session) Search(query []byte) (*Result, error) {
	return ses.SearchContext(context.Background(), query)
}

// SearchContext is Search under a context: an ALAE-engine search polls
// the context at entry-budget checkpoints and aborts with the
// context's error within a bounded number of DP entries (see
// Index.SearchContext for the contract, including the baseline
// algorithms' admission-only cancellation). The session remains fully
// reusable after a cancelled search.
func (ses *Session) SearchContext(cx context.Context, query []byte) (*Result, error) {
	h, err := resolveThresholdOver(ses.s, ses.opts, len(query), ses.ix.Len(), ses.ix.trie.Index().Sigma())
	if err != nil {
		return nil, err
	}
	return ses.searchThreshold(cx, query, h)
}

// searchThreshold is SearchContext with the score threshold pinned by
// the caller instead of derived from the session's options. The
// sharded store's scatter step needs it: E-value statistics depend on
// the database length n, so every shard must search at the threshold
// of the WHOLE store — per-shard re-derivation over the shard's
// smaller n would loosen thresholds and break parity with a monolithic
// index.
func (ses *Session) searchThreshold(cx context.Context, query []byte, h int) (*Result, error) {
	if ses.closed {
		return nil, fmt.Errorf("alae: Search on a closed Session")
	}
	if err := cx.Err(); err != nil {
		return nil, err // admission check; the only one the baselines get
	}
	if ses.cs == nil {
		return ses.ix.searchBaseline(query, ses.opts.Algorithm, ses.s, h), nil
	}
	coll := ses.cs.Collector()
	coll.Reset()
	st, err := ses.cs.SearchContext(cx, query, ses.s, h, coll, ses.opts.Parallelism)
	if err != nil {
		return nil, err
	}
	return &Result{
		Threshold: h,
		Algorithm: ses.opts.Algorithm,
		Stats:     statsFromCore(st),
		Hits:      coll.Hits(),
	}, nil
}

// searchCollect is the store's collector-resident search: one query at
// a pinned threshold, its fork families dispatched across lanes
// work-stealing workers (core.Session.SearchContext), with the hits
// left IN the core session's collector for the caller to drain in order
// (align.Collector.Drain) instead of materialised into a Result.Hits
// slice. This is what makes the store's gather streaming: no per-lane
// intermediate hit slice ever exists. Baseline algorithms (cs == nil)
// have no collector; they fall back to searchThreshold and return the
// materialised *Result as res instead.
func (ses *Session) searchCollect(cx context.Context, query []byte, h, lanes int) (st Stats, res *Result, err error) {
	if ses.cs == nil { // a baseline, or closed: searchThreshold rejects a closed session
		r, err := ses.searchThreshold(cx, query, h)
		if err != nil {
			return Stats{}, nil, err
		}
		return r.Stats, r, nil
	}
	coll := ses.cs.Collector()
	coll.Reset()
	cst, err := ses.cs.SearchContext(cx, query, ses.s, h, coll, lanes)
	if err != nil {
		return Stats{}, nil, err
	}
	return statsFromCore(cst), nil, nil
}

// Close hands the session's pooled state back to the engine. The
// session must not be used afterwards; Close is idempotent.
func (ses *Session) Close() {
	if ses.cs != nil {
		ses.cs.Release()
		ses.cs = nil
	}
	ses.closed = true
}

// statsFromCore converts the core engine's counters to the public
// Stats shape.
func statsFromCore(st core.Stats) Stats {
	return Stats{
		CalculatedEntries:   st.CalculatedEntries(),
		ComputationCost:     st.ComputationCost(),
		NodesVisited:        st.NodesVisited,
		ForksStarted:        st.ForksStarted,
		ForksDominated:      st.ForksDominated,
		EmittedHits:         st.EmittedHits,
		SuppressedEmissions: st.SuppressedEmissions,
	}
}
