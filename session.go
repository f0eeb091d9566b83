package alae

import (
	"context"

	"repro/internal/align"
	"repro/internal/core"
)

// lane is the one search type between the public API and the core
// engine: one resolved configuration over one Index, answering query
// after query. Index.Search draws one per call, each Index.SearchAll
// worker holds one, and a store session holds one per generation. An
// ALAE lane holds a pooled core session, which owns every per-query
// structure (gram table, δ and bound tables, workspace, result table,
// worker shards) and re-arms it in place; a baseline lane holds only its
// own result table. A search leaves its hits in coll, for the caller to
// take (Collector.Hits) or drain in order (Collector.Drain). A lane is
// NOT safe for concurrent use; lanes of one Index share its engines.
type lane struct {
	ix   *Index
	opts SearchOptions
	s    Scheme           // opts' scheme, resolved by resolveScheme
	cs   *core.Session    // ALAE only: the pooled core session
	coll *align.Collector // the lane's result table
}

// newLane opens a lane for opts over ix. opts must have passed
// resolveScheme, which returned s; so opening cannot fail.
func (ix *Index) newLane(opts SearchOptions, s Scheme) *lane {
	ln := &lane{ix: ix, opts: opts, s: s}
	if opts.Algorithm == ALAE {
		ln.cs = ix.alaeEngine(opts).AcquireSession()
		ln.coll = ln.cs.Collector()
	} else {
		ln.coll = align.NewCollector()
	}
	return ln
}

// search runs one query at threshold h, leaving its hits in the lane's
// table. workers is the ALAE fork-family fan-out; the baselines ignore
// it, and check the context only at admission (see
// Index.SearchContext). The lane stays usable after a failed search.
func (ln *lane) search(cx context.Context, query []byte, h, workers int) (Stats, error) {
	if err := cx.Err(); err != nil {
		return Stats{}, err
	}
	ln.coll.Reset()
	if ln.cs == nil {
		return ln.ix.searchBaseline(query, ln.opts.Algorithm, ln.s, h, ln.coll), nil
	}
	st, err := ln.cs.SearchContext(cx, query, ln.s, h, ln.coll, workers)
	if err != nil {
		return Stats{}, err
	}
	return statsFromCore(st), nil
}

// searchIndex answers query over the lane's own index: the threshold
// from the index's (n, σ), the search, then the hits taken from the
// lane's table.
func (ln *lane) searchIndex(cx context.Context, query []byte) (*Result, error) {
	h, err := resolveThresholdOver(ln.s, ln.opts, len(query), ln.ix.Len(), ln.ix.trie.Index().Sigma())
	if err != nil {
		return nil, err
	}
	st, err := ln.search(cx, query, h, ln.opts.Parallelism)
	if err != nil {
		return nil, err
	}
	return &Result{Hits: ln.coll.Hits(), Threshold: h, Algorithm: ln.opts.Algorithm, Stats: st}, nil
}

// release hands an ALAE lane's core session back to the engine's pool.
// The lane must not be used afterwards.
func (ln *lane) release() {
	if ln.cs != nil {
		ln.cs.Release()
	}
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
