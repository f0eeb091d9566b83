package alae_test

import (
	"sync"
	"testing"

	"repro"
	"repro/internal/align"
	"repro/internal/exp"
)

// TestParallelSearchIdenticalHits is the acceptance check of the
// parallel fork-family scheduler on the Table 2 workload: a parallel
// search must produce exactly the sequential engine's hit set (after
// the collector's canonical sort) and the same CalculatedEntries.
func TestParallelSearchIdenticalHits(t *testing.T) {
	wl := exp.DNAWorkload(200_000, 1_000, 2, 42)
	ix := alae.NewIndex(wl.Text)
	for _, query := range wl.Queries {
		seq, err := ix.Search(query, alae.SearchOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{0, 4} {
			par, err := ix.Search(query, alae.SearchOptions{Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			if !align.EqualHits(par.Hits, seq.Hits) {
				t.Fatalf("parallelism %d: %d hits vs %d sequential", p, len(par.Hits), len(seq.Hits))
			}
			if par.Stats.CalculatedEntries != seq.Stats.CalculatedEntries {
				t.Fatalf("parallelism %d: CalculatedEntries %d vs %d",
					p, par.Stats.CalculatedEntries, seq.Stats.CalculatedEntries)
			}
		}
	}
}

// TestConcurrentParallelSearches runs concurrent Search calls — each
// itself multi-worker — against one shared Index. Run under -race in
// CI, this is the data-race check for the shared trie, domination
// index and session pool.
func TestConcurrentParallelSearches(t *testing.T) {
	wl := exp.DNAWorkload(30_000, 400, 6, 9)
	ix := alae.NewIndex(wl.Text)
	want, err := ix.Search(wl.Queries[0], alae.SearchOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res, err := ix.Search(wl.Queries[(g+i)%len(wl.Queries)],
					alae.SearchOptions{Parallelism: g % 4})
				if err != nil {
					errs <- err
					return
				}
				if (g+i)%len(wl.Queries) == 0 && !align.EqualHits(res.Hits, want.Hits) {
					errs <- errMismatch
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent search diverged from sequential result" }

// TestNegativeOptionsRejected pins the validation of Threshold and
// EValue: negatives must error out instead of silently falling back to
// the defaults. An AlphabetSize below 0 or of 1 leaves the E-value
// statistics undefined, and must error out on every search surface
// instead of panicking or failing each query.
func TestNegativeOptionsRejected(t *testing.T) {
	ix := alae.NewIndex([]byte("ACGTACGTACGTACGTACGT"))
	if _, err := ix.Search([]byte("ACGTACGT"), alae.SearchOptions{Threshold: -5}); err == nil {
		t.Error("negative Threshold accepted")
	}
	if _, err := ix.Search([]byte("ACGTACGT"), alae.SearchOptions{EValue: -1}); err == nil {
		t.Error("negative EValue accepted")
	}
	if _, err := ix.ResolveThreshold(8, alae.SearchOptions{Threshold: -1}); err == nil {
		t.Error("ResolveThreshold accepted a negative threshold")
	}
	if _, err := ix.ResolveThreshold(8, alae.SearchOptions{EValue: -0.5}); err == nil {
		t.Error("ResolveThreshold accepted a negative E-value")
	}
	st, err := alae.NewStore([]alae.SeqRecord{{Name: "a", Seq: []byte("ACGTACGTACGTACGTACGT")}}, alae.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every bad option, for every algorithm — the baselines included —
	// fails on both search surfaces before any lane opens.
	query := []byte("ACGTACGTACGT")
	for _, alg := range []alae.Algorithm{alae.ALAE, alae.BWTSW, alae.BLAST, alae.SmithWaterman} {
		good := alae.SearchOptions{Algorithm: alg, Threshold: 5}
		if _, err := ix.Search(query, good); err != nil {
			t.Fatalf("%v: the query itself is rejected (%v), so the cases below prove nothing", alg, err)
		}
		if _, err := st.Search(query, good); err != nil {
			t.Fatalf("%v: the query itself is rejected by the store (%v)", alg, err)
		}
		for _, opts := range []alae.SearchOptions{
			{Algorithm: alg, Threshold: -1},
			{Algorithm: alg, EValue: -2},
			{Algorithm: alg, Parallelism: -3},
			{Algorithm: alg, AlphabetSize: -1},
			{Algorithm: alg, AlphabetSize: 1},
		} {
			if _, err := ix.Search(query, opts); err == nil {
				t.Errorf("Index.Search accepted %+v", opts)
			}
			if _, err := st.Search(query, opts); err == nil {
				t.Errorf("Store.Search accepted %+v", opts)
			}
		}
	}
}

// TestAblationEnginesCached checks the engine cache satellite: twice
// searching with the same ablation flags must hit the same cached
// engine, which shows up as the second search reusing the lazily built
// structures (no error, identical results), and distinct flag sets
// must not interfere with the default configuration's results.
func TestAblationEnginesCached(t *testing.T) {
	wl := exp.DNAWorkload(20_000, 300, 1, 5)
	ix := alae.NewIndex(wl.Text)
	base, err := ix.Search(wl.Queries[0], alae.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []alae.SearchOptions{
		{DisableScoreFilter: true},
		{DisableLengthFilter: true},
		{DisableDomination: true},
		{DisableScoreFilter: true, DisableDomination: true},
	} {
		first, err := ix.Search(wl.Queries[0], opts)
		if err != nil {
			t.Fatal(err)
		}
		second, err := ix.Search(wl.Queries[0], opts)
		if err != nil {
			t.Fatal(err)
		}
		if !align.EqualHits(first.Hits, second.Hits) || !align.EqualHits(first.Hits, base.Hits) {
			t.Fatalf("ablation %+v: hits diverge across cached engines", opts)
		}
	}
	again, err := ix.Search(wl.Queries[0], alae.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !align.EqualHits(again.Hits, base.Hits) {
		t.Fatal("default engine results changed after ablation searches")
	}
}
