package alae

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/align"
	"repro/internal/seq"
)

// This file is the serving store: the paper's §2.2 database model
// (concatenate the sequences T1..Tn, search one index, map hits back
// to members) productionised as a first-class subsystem. A Store
// builds ONE monolithic index per generation over the members'
// separator-framed concatenation and serves searches by a shared-index
// scatter-gather: the query's grams are resolved ONCE against each
// generation's trie, the resolved fork families are dispatched across
// SearchOptions.Parallelism workers (pulling families from one
// work-stealing cursor — see core.Session.SearchContext), every
// generation runs at the threshold of the whole database, and the
// gather drains each generation's collector table, in order, straight
// into the result — rejecting hits ending on separator rows and hits
// inside tombstoned members — with no intermediate per-generation hit
// slice and no sort. The worker count only schedules the families:
// CalculatedEntries and the hit set are byte-identical at every
// Parallelism. On top sits a result-level query cache: search results
// are immutable per store state, so a repeated (query, options) pair
// against an unmutated store is answered by one hash probe.
//
// The store is MUTABLE: Append, Delete and Compact (storegen.go) give
// it generational LSM-style incremental maintenance, with every search
// running against an immutable atomically-swapped view.

// SeqRecord is one named input sequence of a Store.
type SeqRecord struct {
	Name string
	Seq  []byte
}

// SeqTable is the name/offset directory of a concatenated sequence
// database: it maps global text intervals to (member, local offset)
// pairs and rejects intervals that touch the separator byte between
// members. Store.Sequences exposes the store's global directory; the
// same type serves single-index collections.
type SeqTable = seq.Table

// SeqHit is a hit mapped to a member sequence of a Store. The embedded
// Hit carries global coordinates — TEnd is a position in the virtual
// concatenation T1 # T2 # … # Tn of the LIVE members — while Member,
// Name and LocalTEnd give the member-level view. Member indexes the
// live directory of the store state the search ran against (see
// Store.Stamp): a mutation can renumber members, so hits must not be
// held across mutations.
type SeqHit struct {
	Hit
	Member    int    // index of the member sequence, in live order
	Name      string // the member's name
	LocalTEnd int    // TEnd in the member's own coordinates
}

// StoreResult is one Store search's outcome. Results may be shared
// with the store's query cache: callers must not modify Hits.
type StoreResult struct {
	Hits      []SeqHit
	Threshold int // the H actually used, derived from the WHOLE store's length
	Algorithm Algorithm
	Stats     Stats // summed over generations; QueryCacheHits/Misses are per-call
}

// StoreOptions configures NewStore.
type StoreOptions struct {
	// Shards must be 0 or 1; the store constructors reject more.
	//
	// Deprecated: a search's fork-family fan-out is
	// SearchOptions.Parallelism, its only knob.
	Shards int
	// QueryCacheSize is the byte budget of the result-level query
	// cache, enforced at every insert. 0 means the default (64 MiB);
	// negative disables the cache. The cache never changes results:
	// keys carry the store's mutation stamp, so an Append/Delete/
	// Compact strands every pre-mutation entry (they age out through
	// normal eviction) instead of ever answering for the wrong store
	// state.
	QueryCacheSize int
}

// defaultQueryCacheBytes is the default query-cache byte budget.
const defaultQueryCacheBytes = 64 << 20

// Store is a multi-sequence serving layer above Index: one index per
// generation, each searched by SearchOptions.Parallelism workers. Any
// number of concurrent searches can run against it, interleaved with
// mutations: searches read an immutable view swapped atomically by
// Append/Delete/Compact, which serialise among themselves. See the
// file comment for the search pipeline and storegen.go for the
// generational machinery.
type Store struct {
	view  atomic.Pointer[storeView]
	cache *queryCache // nil when disabled

	mu    sync.Mutex
	pools map[string]*sync.Pool // options fingerprint → *storeSession pool

	mutMu     sync.Mutex // serialises mutations and their persistence
	dir       string     // backing directory; "" = memory-only
	nextGenID uint64
}

// NewStore builds one monolithic index over the records'
// separator-framed concatenation as the store's first generation. The
// records' sequences are copied into the generation text; the inputs
// are not retained.
func NewStore(records []SeqRecord, opts StoreOptions) (*Store, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("alae: NewStore needs at least one record")
	}
	if err := validateRecords(records); err != nil {
		return nil, err
	}
	g := buildGeneration(1, records)
	return newStoreFromGens([]*generation{g}, 1, opts)
}

// newStoreFromGens assembles a Store around a generation list — the
// shared constructor behind NewStore, LoadStore and loadStoreDir.
func newStoreFromGens(gens []*generation, stamp uint64, opts StoreOptions) (*Store, error) {
	if opts.Shards > 1 {
		return nil, fmt.Errorf("alae: StoreOptions.Shards is %d, but a store takes no fan-out of its own; set SearchOptions.Parallelism instead", opts.Shards)
	}
	v, err := buildView(gens, stamp)
	if err != nil {
		return nil, err
	}
	st := &Store{
		pools: make(map[string]*sync.Pool),
		cache: newQueryCache(opts.QueryCacheSize),
	}
	for _, g := range gens {
		if g.id >= st.nextGenID {
			st.nextGenID = g.id + 1
		}
	}
	st.view.Store(v)
	return st, nil
}

// Sequences returns the store's global sequence directory: the LIVE
// member names, lengths, and the global offsets hits are mapped
// through. The returned table is an immutable snapshot of the current
// store state; a mutation publishes a new one.
func (st *Store) Sequences() *SeqTable { return st.currentView().seqs }

// resolveThreshold derives the score threshold for a query of length m
// exactly as a monolithic Index over the whole live concatenation
// would (resolveThresholdOver with the view's TOTAL length and
// alphabet). Neither the worker count nor generations may change
// thresholds — that is what keeps the hit sets of every Parallelism
// and every generation list byte-identical to the monolithic ones.
func (v *storeView) resolveThreshold(m int, opts SearchOptions, s Scheme) (int, error) {
	return resolveThresholdOver(s, opts, m, v.seqs.TotalLen(), v.sigma)
}

// optionsFingerprint canonically serialises every SearchOptions field.
// It keys both the per-options session pools and (with the mutation
// stamp) the query cache: two options values with equal fingerprints
// are interchangeable.
func optionsFingerprint(o SearchOptions) string {
	b := make([]byte, 0, 64)
	for _, v := range [...]int64{
		int64(o.Scheme.Match), int64(o.Scheme.Mismatch),
		int64(o.Scheme.GapOpen), int64(o.Scheme.GapExtend),
		int64(o.Threshold), int64(o.Algorithm),
		int64(o.AlphabetSize), int64(o.Parallelism),
	} {
		b = strconv.AppendInt(b, v, 10)
		b = append(b, ',')
	}
	b = strconv.AppendUint(b, math.Float64bits(o.EValue), 16)
	for _, f := range [...]bool{o.DisableLengthFilter, o.DisableScoreFilter, o.DisableDomination} {
		if f {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	}
	return string(b)
}

// sessionPool returns (building if needed) the storeSession pool for
// one options fingerprint. Pools hold warm sessions — per-generation
// lanes whose core sessions, collectors and gram tables are already
// sized — so bursty Store.Search traffic reuses lanes instead of
// opening per call. Sessions re-sync themselves to the current view per
// search, so pools survive mutations.
func (st *Store) sessionPool(fp string) *sync.Pool {
	st.mu.Lock()
	defer st.mu.Unlock()
	p := st.pools[fp]
	if p == nil {
		p = &sync.Pool{}
		st.pools[fp] = p
	}
	return p
}

// Search runs one query through the store: a query-cache probe, then —
// on a miss — a scatter-gather over the generations on pooled lanes (see
// the file comment). The returned result may be shared with the cache;
// callers must not modify its Hits. A store built with
// StoreOptions{QueryCacheSize: -1} has no cache, so every search computes.
func (st *Store) Search(query []byte, opts SearchOptions) (*StoreResult, error) {
	return st.SearchContext(context.Background(), query, opts)
}

// SearchContext is Search under a context: a deadline or cancellation
// aborts the scatter across every generation within a bounded number of DP
// entries per worker and returns the context's error (see
// Index.SearchContext). An already-dead context is rejected before the
// cache probe, so a cached result never masks a cancelled request, and
// a cancelled search is never published to the cache.
func (st *Store) SearchContext(cx context.Context, query []byte, opts SearchOptions) (*StoreResult, error) {
	s, err := resolveScheme(opts)
	if err != nil {
		return nil, err
	}
	if err := cx.Err(); err != nil {
		return nil, err
	}
	fp := optionsFingerprint(opts)
	pool := st.sessionPool(fp)
	ss := st.pooledSession(pool, opts, s)
	res, err := st.cachedSearch(cx, ss, fp, query)
	pool.Put(ss)
	return res, err
}

// pooledSession takes a warm session for opts from pool (the pool of
// opts' fingerprint), making one when the pool is empty. opts must have
// passed resolveScheme, which returned s. Callers Put it back when done.
func (st *Store) pooledSession(pool *sync.Pool, opts SearchOptions, s Scheme) *storeSession {
	if v := pool.Get(); v != nil {
		return v.(*storeSession)
	}
	return &storeSession{st: st, opts: opts, s: s}
}

// cachedSearch answers query through the cache when possible,
// computing and publishing through ss otherwise. fp must be the
// fingerprint of ss's options. The session is synced to the current
// view FIRST and the cache key carries that view's mutation stamp, so
// the probe, the computation and the published entry all describe the
// same store state — a concurrent mutation can only make an entry
// stale-keyed (unreachable), never wrong. Errors — cancellation
// included — are never cached: only a completed result is published.
func (st *Store) cachedSearch(cx context.Context, ss *storeSession, fp string, query []byte) (*StoreResult, error) {
	ss.syncView()
	if st.cache == nil {
		return ss.search(cx, query)
	}
	key := cacheKey(ss.view.stamp, fp, query)
	if cached, ok := st.cache.get(key); ok {
		// A shallow copy shares the immutable hit slice but gives the
		// caller its own counters.
		cp := *cached
		cp.Stats.QueryCacheHits = 1
		return &cp, nil
	}
	res, err := ss.search(cx, query)
	if err != nil {
		return nil, err
	}
	canon := *res
	canon.Stats.QueryCacheHits, canon.Stats.QueryCacheMisses = 0, 0
	st.cache.put(key, &canon)
	res.Stats.QueryCacheMisses = 1
	return res, nil
}

// QueryCacheStats reports the store-lifetime query-cache hit and miss
// totals (both zero when the cache is disabled).
func (st *Store) QueryCacheStats() (hits, misses int64) {
	if st.cache == nil {
		return 0, 0
	}
	return st.cache.hits.Load(), st.cache.misses.Load()
}

// QueryCachePressure reports the query cache's current footprint: live
// cached results and the total number of hits they pin (the dominant
// part of its bytes). Both are zero when the cache is disabled.
func (st *Store) QueryCachePressure() (results int, totalHits int64) {
	if st.cache == nil {
		return 0, 0
	}
	return st.cache.pressure()
}

// ShedQueryCache evicts cached results (approximately least recently
// used first) until the cache pins at most maxHits total hits, and
// reports how many results were evicted. The byte budget already
// bounds the cache at every insert; this drops memory on demand, and
// maxHits ≤ 0 empties the cache. No-op when the cache is disabled.
func (st *Store) ShedQueryCache(maxHits int64) (evicted int) {
	if st.cache == nil {
		return 0
	}
	return st.cache.shed(maxHits)
}

// Align reconstructs the best alignment ending at a store hit, for
// display. The traceback runs inside the hit's member, as the search
// did, so no path can cross a separator into its neighbour; the
// alignment comes back in its generation's coordinates, which
// FormatAlignment expects. The hit must come from a search against the
// CURRENT store state: after a mutation, re-search rather than aligning
// stale hits (a renumbered member is detected by the bounds check, a
// re-used index is not).
func (st *Store) Align(query []byte, s Scheme, hit SeqHit) (Alignment, error) {
	v := st.currentView()
	if hit.Member < 0 || hit.Member >= len(v.loc) {
		return Alignment{}, fmt.Errorf("alae: hit member %d is not a live member (store mutated since the search?)", hit.Member)
	}
	gl := v.loc[hit.Member]
	g := v.gens[gl.gen]
	s, err := resolveScheme(SearchOptions{Scheme: s})
	if err != nil {
		return Alignment{}, err
	}
	start := g.tab.Start(gl.member)
	member := g.ix.text[start : start+g.tab.SeqLen(gl.member)]
	a, err := align.Traceback(member, query, s, Hit{TEnd: hit.LocalTEnd, QEnd: hit.QEnd, Score: hit.Score})
	if err != nil {
		return Alignment{}, err
	}
	a.TStart += start
	a.TEnd += start
	return a, nil
}

// FormatAlignment renders an alignment produced by Store.Align for the
// given hit.
func (st *Store) FormatAlignment(a Alignment, hit SeqHit, query []byte, width int) string {
	v := st.currentView()
	if hit.Member < 0 || hit.Member >= len(v.loc) {
		return ""
	}
	g := v.gens[v.loc[hit.Member].gen]
	return g.ix.FormatAlignment(a, query, width)
}

// TopKSeq returns the k highest-scoring store hits (all when k ≤ 0),
// with the same deterministic positional tiebreak as TopK: equal
// scores order by (TEnd, QEnd). The input is not modified; serving
// layers use this to truncate large responses to the best hits, so k
// is small and the input may be millions of hits: selection runs in a
// buffer of 2k — a hit ranking behind the k-th best of the last sort is
// skipped with one comparison, and a full buffer is sorted and cut back
// to k — instead of copying and sorting the whole input.
func TopKSeq(hits []SeqHit, k int) []SeqHit {
	if k <= 0 || k >= len(hits) {
		out := append([]SeqHit(nil), hits...)
		slices.SortFunc(out, rankSeqHits)
		return out
	}
	buf := make([]SeqHit, 0, 2*k)
	cut := false // buf[k-1] is the k-th best of the hits seen at the last sort
	for i := range hits {
		if cut && rankSeqHits(hits[i], buf[k-1]) > 0 {
			continue
		}
		if buf = append(buf, hits[i]); len(buf) == cap(buf) {
			slices.SortFunc(buf, rankSeqHits)
			buf, cut = buf[:k], true
		}
	}
	slices.SortFunc(buf, rankSeqHits)
	return buf[:k]
}

// rankSeqHits orders by descending score, then ascending (TEnd, QEnd).
func rankSeqHits(a, b SeqHit) int {
	if a.Score != b.Score {
		return b.Score - a.Score
	}
	if a.TEnd != b.TEnd {
		return a.TEnd - b.TEnd
	}
	return a.QEnd - b.QEnd
}

// SampleQuery returns a copy of up to n leading bytes of the store's
// longest LIVE member sequence — a guaranteed-hit probe query drawn
// from the store's own data. Serving self-checks use it: a search for
// a live member's own prefix must come back with hits, whatever the
// store holds, so an empty answer means the serving path (not the
// data) is broken. Tombstoned members are never sampled (their bytes
// would return no hits by design). The copy never aliases generation texts
// and never contains a separator byte.
func (st *Store) SampleQuery(n int) []byte {
	v := st.currentView()
	best := 0
	for g := 1; g < v.seqs.Len(); g++ {
		if v.seqs.SeqLen(g) > v.seqs.SeqLen(best) {
			best = g
		}
	}
	if n > v.seqs.SeqLen(best) {
		n = v.seqs.SeqLen(best)
	}
	if n <= 0 {
		return nil
	}
	gl := v.loc[best]
	g := v.gens[gl.gen]
	start := g.tab.Start(gl.member)
	return append([]byte(nil), g.ix.Text()[start:start+n]...)
}
