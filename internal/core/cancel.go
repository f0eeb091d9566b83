package core

// Cancellation checkpoints. A serving process needs a way to STOP a
// running search — a request deadline fires, the client disconnects,
// the server drains — and the traversal loops are where the time goes,
// so that is where cancellation must be observed. Polling a context on
// every DP cell would dominate the inner loops; instead each worker's
// searchCtx polls its context's done channel whenever the worker's
// calculated-entry count has advanced by cancelEntryBudget since the
// last poll. Every traversal unit between two checkpoint calls
// computes a bounded number of entries (one trie-edge advance, one
// linear-walk level, one vertical column — each O(m) or O(Lmax)), so a
// cancelled search stops within a bounded entry budget per worker:
// at most cancelEntryBudget plus one unit's entries past the moment
// the context fires. Hits already collected are discarded by the
// caller (SearchContext returns the context's error); the session and
// its buffers remain fully reusable — cancellation unwinds through the
// same truncation paths a dead subtree does.

// cancelEntryBudget is the number of calculated entries a worker may
// accrue between two polls of its cancellation signal. It bounds both
// the polling overhead (one channel poll per 64Ki entries — noise next
// to the entries themselves) and the post-cancellation overrun.
const cancelEntryBudget = 1 << 16

// cancelled reports whether the search's context has been cancelled,
// polling the done channel only when the worker's entry count has
// crossed the next budget mark. pending carries entries a caller has
// accumulated locally but not yet flushed into ctx.st (the DFS walk
// batches its NGR counts), so the budget accounting sees them too.
// Once the channel fires the result latches: every later call is a
// cheap field read and the traversal unwinds without polling again.
func (ctx *searchCtx) cancelled(pending int64) bool {
	if ctx.stopped {
		return true
	}
	if ctx.done == nil {
		return false
	}
	// Summed through the pointer: the value method Stats.CalculatedEntries
	// would copy the whole struct at every checkpoint of every request
	// that carries a deadline.
	st := ctx.st
	if ce := st.EntriesNGR + st.EntriesBoundary + st.EntriesInterior + pending; ce >= ctx.nextPoll {
		ctx.nextPoll = ce + cancelEntryBudget
		select {
		case <-ctx.done:
			ctx.stopped = true
		default:
		}
	}
	return ctx.stopped
}
