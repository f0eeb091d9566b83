package core

import (
	"sync"

	"repro/internal/align"
)

// The parallel fork-family scheduler. A fork family — one distinct
// q-gram of the query with its pre-resolved trie node and column set
// (see resolve.go) — is the engine's natural unit of independent work:
// families never share traversal state, only the read-only index
// structures (trie, domination flags, query, δ table), and their
// outputs combine through the collector's commutative max-merge and
// additive statistics. Families vary wildly in cost (a family over a
// frequent gram walks a much larger subtree), so the scheduler uses an
// atomic work-stealing cursor over the sorted family list instead of
// static striping: idle workers immediately pull the next family.
// It is the only fan-out: Session.SearchContext — and with it every
// store generation's SearchOptions.Parallelism workers — runs through
// it.
// Counters stay scheduling-invariant under stealing — they are
// per-family sums, the collector merges by a commutative max and the
// dominance table is re-armed per family — so CalculatedEntries and
// the hit set are byte-identical for every worker count.
//
// Hit recording is sharded: each worker owns one open-addressing table
// of the session's ShardedCollector, so no Add ever contends, and the
// shards merge into the caller's collector by table scan afterwards.
// The shards, the per-worker Stats and the per-worker traversal
// workspaces belong to the session and are re-armed per query, so a
// serving session's parallel path reuses its warm tables and buffers
// instead of allocating per search.

// searchFamilies fans the pre-resolved fork families out over workers
// goroutines and merges the per-worker collector shards and statistics
// into c and st. base carries the search-shared context fields; each
// lane copies it and fills in its own collector, stats and workspace.
// st must already carry Threshold/Q/Lmax (plus the resolution-time
// fork accounting).
func (ses *Session) searchFamilies(families []gramFamily, base searchCtx, workers int, c *align.Collector, st *Stats) {
	if workers > len(families) {
		workers = len(families)
	}
	if workers <= 1 {
		// The sequential lane runs in the session-owned context, so a
		// warm sequential search allocates nothing; the context is
		// zeroed afterwards so a pooled idle session never pins the
		// caller's collector or query.
		ctx := &ses.ctx
		*ctx = base
		ctx.c, ctx.st, ctx.ws = c, st, ses.ws[0]
		for i := range families {
			if ctx.stopped {
				break // cancelled (cancel.go); SearchContext reports the error
			}
			ctx.processGram(&families[i])
		}
		ses.ws[0].scrub()
		*ctx = searchCtx{}
		return
	}

	if ses.shards == nil {
		ses.shards = align.NewSharded(workers)
	} else {
		ses.shards.Resize(workers)
	}
	ses.shards.ResetAll()
	if cap(ses.wstats) < workers {
		ses.wstats = make([]Stats, workers)
	}
	wstats := ses.wstats[:workers]
	for len(ses.ws) < workers {
		ses.ws = append(ses.ws, &workspace{})
	}

	cursor := &ses.cursor
	cursor.Store(0)
	ctxs := make([]*searchCtx, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Worker stats start from the search-level constants so the
		// final Stats.Add merge preserves them.
		wstats[w] = Stats{Threshold: st.Threshold, Q: st.Q, Lmax: st.Lmax}
		ctx := base
		ctx.c, ctx.st, ctx.ws = ses.shards.Shard(w), &wstats[w], ses.ws[w]
		ctxs[w] = &ctx
		wg.Add(1)
		go func(ctx *searchCtx) {
			defer wg.Done()
			for {
				if ctx.stopped {
					return // cancelled (cancel.go); partial stats still merge
				}
				i := int(cursor.Add(1)) - 1
				if i >= len(families) {
					return
				}
				ctx.processGram(&families[i])
			}
		}(ctxs[w])
	}
	wg.Wait()
	for _, ctx := range ctxs {
		st.Add(*ctx.st)
		ctx.ws.scrub()
	}
	ses.shards.MergeInto(c, workers)
}
