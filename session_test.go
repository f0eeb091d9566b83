package alae

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/align"
	"repro/internal/seq"
)

// openLane is the options gate, then a lane: what Index.SearchContext
// does, with the lane kept for the test to re-arm.
func openLane(t testing.TB, ix *Index, opts SearchOptions) *lane {
	t.Helper()
	s, err := resolveScheme(opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix.newLane(opts, s)
}

// openStoreSession is the options gate, then a store session: what
// Store.SearchContext does, without the pool.
func openStoreSession(t testing.TB, st *Store, opts SearchOptions) *storeSession {
	t.Helper()
	s, err := resolveScheme(opts)
	if err != nil {
		t.Fatal(err)
	}
	return &storeSession{st: st, opts: opts, s: s}
}

// searchSession is Store.SearchContext's computing path on a held
// session: bind to the current view, then scatter-gather, with the
// query cache bypassed.
func searchSession(cx context.Context, ss *storeSession, query []byte) (*StoreResult, error) {
	ss.syncView()
	return ss.search(cx, query)
}

// TestSessionReuseParity is the serving-core acceptance test: the same
// hits must come back whether a lane is fresh or re-armed, whether the
// search runs sequentially or in parallel, over DNA and protein.
func TestSessionReuseParity(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	type tc struct {
		name    string
		alpha   *seq.Alphabet
		scheme  Scheme
		n, qlen int
	}
	cases := []tc{
		{"dna", seq.DNA, DefaultDNAScheme, 5000, 300},
		{"protein", seq.Protein, DefaultProteinScheme, 3000, 250},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			letters := c.alpha.Letters()
			text := make([]byte, c.n)
			for i := range text {
				text[i] = letters[rng.Intn(len(letters))]
			}
			var queries [][]byte
			for k := 0; k < 3; k++ {
				lo := (k + 1) * c.n / 5
				queries = append(queries, seq.Mutate(c.alpha, text[lo:lo+c.qlen],
					seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.01}, rng))
			}
			ix := NewIndex(text)
			for _, par := range []int{1, 0} {
				opts := SearchOptions{Scheme: c.scheme, Threshold: 25, Parallelism: par}
				ln := openLane(t, ix, opts)
				// Two passes re-arm the lane. Every result must equal a
				// one-shot Index.Search, work counters included.
				for pass := 0; pass < 2; pass++ {
					for qi, q := range queries {
						got, err := ln.searchIndex(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						want, err := ix.Search(q, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !align.EqualHits(got.Hits, want.Hits) {
							t.Fatalf("p=%d pass %d query %d: lane hits diverge (%d vs %d)",
								par, pass, qi, len(got.Hits), len(want.Hits))
						}
						if got.Stats != want.Stats {
							t.Fatalf("p=%d pass %d query %d: stats diverge: %+v vs %+v",
								par, pass, qi, got.Stats, want.Stats)
						}
					}
				}
				ln.release()
			}
		})
	}
}

// TestShortQueryRejectedPublicSurface pins the too-short-query
// contract: Index.Search and a held lane reject queries shorter than
// the scheme's gram length for the ALAE engine
// with a descriptive error, while the Smith-Waterman baseline (which
// has no gram-length floor) still answers them.
func TestShortQueryRejectedPublicSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	ix := NewIndex(randDNA(400, rng))
	q := DefaultDNAScheme.Q()
	short := randDNA(q-1, rng)
	opts := SearchOptions{Threshold: 25}
	if _, err := ix.Search(short, opts); err == nil {
		t.Errorf("Index.Search accepted a query of length %d < q=%d", len(short), q)
	}
	ln := openLane(t, ix, opts)
	if _, err := ln.searchIndex(context.Background(), short); err == nil {
		t.Error("a lane accepted a short query")
	}
	// The lane must stay usable after the rejection.
	if _, err := ln.searchIndex(context.Background(), randDNA(50, rng)); err != nil {
		t.Errorf("lane broken after short-query rejection: %v", err)
	}
	ln.release()
	if _, err := ix.Search(short, SearchOptions{Algorithm: SmithWaterman, Threshold: 25}); err != nil {
		t.Errorf("Smith-Waterman rejected a short query: %v", err)
	}
}

// TestSessionBaselineAlgorithms pins the baseline lanes: a lane over a
// baseline engine, re-armed, answers as Index.Search does, work
// counters included.
func TestSessionBaselineAlgorithms(t *testing.T) {
	text, query := workload(601, 2000, 300)
	ix := NewIndex(text)
	for _, alg := range []Algorithm{BWTSW, BLAST, SmithWaterman} {
		opts := SearchOptions{Algorithm: alg, Threshold: 25}
		want, err := ix.Search(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		ln := openLane(t, ix, opts)
		for pass := 0; pass < 2; pass++ {
			got, err := ln.searchIndex(context.Background(), query)
			if err != nil {
				t.Fatal(err)
			}
			if !align.EqualHits(got.Hits, want.Hits) || got.Stats != want.Stats {
				t.Fatalf("%v pass %d: lane diverges from Index.Search (%d vs %d hits)", alg, pass, len(got.Hits), len(want.Hits))
			}
		}
		ln.release()
	}
}

// TestSaveLoadProteinRoundTrip is the plane-rank-layout round trip: a
// protein text (σ = 20 puts it on the bit-plane rank core, whose layout
// tag the payload carries) persisted as a one-record store must reload
// into a store that answers as the index does, search after search.
func TestSaveLoadProteinRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	letters := seq.Protein.Letters()
	text := make([]byte, 4000)
	for i := range text {
		text[i] = letters[rng.Intn(len(letters))]
	}
	query := seq.Mutate(seq.Protein, text[1000:1350],
		seq.MutationConfig{SubstitutionRate: 0.08, IndelRate: 0.02}, rng)
	opts := SearchOptions{Scheme: DefaultProteinScheme, Threshold: 22}

	ix := NewIndex(text)
	want, err := ix.Search(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Hits) == 0 {
		t.Fatal("vacuous protein workload")
	}

	loaded := saveLoadOneRecord(t, text)
	if sigma := loaded.currentView().gens[0].ix.trie.Index().Sigma(); sigma <= 4 || sigma > 32 {
		t.Fatalf("σ = %d: the workload does not exercise the plane rank layout", sigma)
	}
	for pass := 0; pass < 2; pass++ { // fresh, then re-armed
		got, err := loaded.Search(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !indexHitsEqual(got.Hits, want.Hits) {
			t.Fatalf("pass %d: loaded protein store returns %d hits, index %d",
				pass, len(got.Hits), len(want.Hits))
		}
	}
}

// warmAllocsPerRun is testing.AllocsPerRun with the collector held off:
// a collection empties every sync.Pool, and one that lands inside the
// count makes the next search rebuild its core session. Whether it
// lands there depends on the heap the tests before left behind, not on
// the code under test.
func warmAllocsPerRun(runs int, f func()) float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// TestIndexSearchAllocBound pins what makes a held lane unnecessary: a
// warm one-shot ALAE Index.Search allocates only the lane, the Result
// and the hit slice — the core session, its collector and every
// per-query table come warm from the engine's pool. Under the race
// detector sync.Pool drops a share of what is Put into it, so a search
// may rebuild its core session; the budget then allows one rebuild
// (TestStoreGatherAllocBound states the same figure per lane).
func TestIndexSearchAllocBound(t *testing.T) {
	text, query := workload(603, 8000, 300)
	ix := NewIndex(text)
	opts := SearchOptions{Threshold: 25, Parallelism: 1}
	search := func() *Result {
		res, err := ix.Search(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var res *Result
	for warm := 0; warm < 3; warm++ {
		res = search()
	}
	if len(res.Hits) == 0 {
		t.Fatal("workload produced no hits; the test is vacuous")
	}
	budget := 3.0
	if raceEnabled {
		budget += 128
	}
	if allocs := warmAllocsPerRun(5, func() { search() }); allocs > budget {
		t.Fatalf("warm Index.Search allocated %.1f objects per query for %d hits (budget %.0f)", allocs, len(res.Hits), budget)
	}
}

// TestSearchAllBuildsOneEngine: SearchAll builds the one engine its
// options select and no other. With DisableDomination in particular it
// must not build an O(n) domination index on the default-filter engine,
// which no search of the batch reads.
func TestSearchAllBuildsOneEngine(t *testing.T) {
	text, query := workload(604, 4000, 300)
	ix := NewIndex(text)
	qs := [][]byte{query, query[50:250], query[100:]}
	if _, err := ix.SearchAll(qs, SearchOptions{Threshold: 25, DisableDomination: true}, 2); err != nil {
		t.Fatal(err)
	}
	if n := len(ix.alae); n != 1 {
		t.Fatalf("SearchAll built %d engines, want 1", n)
	}
}

// TestSearchAllStopsAfterError pins the cancellation contract: after
// the first failure no further queries are launched (a few may already
// be in flight on other workers).
func TestSearchAllStopsAfterError(t *testing.T) {
	ix := NewIndex([]byte("ACGTACGTACGTACGTACGTACGT"))
	queries := make([][]byte, 64)
	for i := range queries {
		queries[i] = []byte("ACGTACGT")
	}
	var (
		mu      sync.Mutex
		started int
	)
	searchAllStarted = func(int) {
		mu.Lock()
		started++
		mu.Unlock()
	}
	defer func() { searchAllStarted = nil }()

	// BWT-SW with an incompatible scheme: every query errors instantly.
	_, err := ix.SearchAll(queries, SearchOptions{
		Algorithm: BWTSW,
		Scheme:    Scheme{Match: 1, Mismatch: -1, GapOpen: -5, GapExtend: -2},
		Threshold: 10,
	}, 2)
	if err == nil {
		t.Fatal("worker error not propagated")
	}
	if started > 4 {
		t.Fatalf("%d of %d queries were launched after the first error; cancellation is not stopping work", started, len(queries))
	}
}
