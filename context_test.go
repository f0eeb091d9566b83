package alae

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/seq"
)

// Robustness acceptance tests for the serving-facing API: context
// cancellation through every public search layer, separator-query
// rejection at the store boundary, and crash-safe store persistence.

// storeCancelWorkload is a shared mid-size store workload: big enough
// that searches do real scatter work, small enough for test time.
func storeCancelWorkload(t *testing.T) (st *Store, queries [][]byte) {
	t.Helper()
	wl := buildStoreWorkload(seq.DNA, 6, 2000, 250, 7001)
	st, err := NewStore(wl.records, StoreOptions{QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	return st, wl.queries
}

// TestStoreSearchContextCancellation: a cancelled context aborts the
// scatter with the context's own error on the sequential and parallel
// paths, and the store — its pooled sessions included — remains fully
// usable with byte-identical answers afterwards.
func TestStoreSearchContextCancellation(t *testing.T) {
	st, queries := storeCancelWorkload(t)
	for _, parallelism := range []int{1, 4} {
		opts := SearchOptions{Threshold: 60, Parallelism: parallelism}
		ref, err := st.Search(queries[0], opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Hits) == 0 {
			t.Fatal("workload produced no hits; the test is vacuous")
		}

		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := st.SearchContext(cancelled, queries[0], opts); err != context.Canceled {
			t.Fatalf("parallelism %d: cancelled store search returned %v, want context.Canceled", parallelism, err)
		}

		expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel2()
		if _, err := st.SearchContext(expired, queries[0], opts); err != context.DeadlineExceeded {
			t.Fatalf("parallelism %d: expired store search returned %v, want context.DeadlineExceeded", parallelism, err)
		}

		// The pooled sessions the cancelled searches ran through must
		// answer the next search exactly.
		res, err := st.Search(queries[0], opts)
		if err != nil {
			t.Fatal(err)
		}
		if !seqHitsEqual(res.Hits, ref.Hits) {
			t.Fatalf("parallelism %d: post-cancellation store search diverged", parallelism)
		}
	}
}

// TestStoreSessionSearchContextCancellation pins the same contract on
// one held store session — its lanes cancelled and then reused.
func TestStoreSessionSearchContextCancellation(t *testing.T) {
	st, queries := storeCancelWorkload(t)
	ss := openStoreSession(t, st, SearchOptions{Threshold: 60, Parallelism: 2})

	ref, err := searchSession(context.Background(), ss, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := searchSession(cancelled, ss, queries[0]); err != context.Canceled {
		t.Fatalf("cancelled session search returned %v, want context.Canceled", err)
	}
	res, err := searchSession(context.Background(), ss, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !seqHitsEqual(res.Hits, ref.Hits) {
		t.Fatal("post-cancellation session search diverged")
	}
}

// TestStoreCachedResultNeverMasksCancellation: with the query cache
// on, a dead context is rejected even when the answer is already
// cached, and a cancelled search is never published to the cache.
func TestStoreCachedResultNeverMasksCancellation(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 4, 2000, 250, 7002)
	st, err := NewStore(wl.records, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := SearchOptions{Threshold: 60}
	if _, err := st.Search(wl.queries[0], opts); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.SearchContext(cancelled, wl.queries[0], opts); err != context.Canceled {
		t.Fatalf("cached query under a cancelled context returned %v, want context.Canceled", err)
	}
	// A cancelled search of an UNCACHED query must not publish.
	if _, err := st.SearchContext(cancelled, wl.queries[1], opts); err != context.Canceled {
		t.Fatalf("uncached query under a cancelled context returned %v", err)
	}
	res, err := st.Search(wl.queries[1], opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.QueryCacheHits != 0 {
		t.Fatal("a cancelled search published a result to the query cache")
	}
}

// TestIndexSearchContextAllAlgorithms: every algorithm rejects a dead
// context at admission with the context's error (the ALAE engines also
// abort mid-flight; the baselines only gate at admission).
func TestIndexSearchContextAllAlgorithms(t *testing.T) {
	text, query := workload(7003, 4000, 400)
	ix := NewIndex(text)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []Algorithm{ALAE, BWTSW, BLAST, SmithWaterman} {
		opts := SearchOptions{Threshold: 40, Algorithm: alg}
		if _, err := ix.SearchContext(cancelled, query, opts); err != context.Canceled {
			t.Errorf("%v: cancelled search returned %v, want context.Canceled", alg, err)
		}
		if _, err := ix.SearchContext(context.Background(), query, opts); err != nil {
			t.Errorf("%v: background-context search failed: %v", alg, err)
		}
	}
}

// TestStoreSearchAllContextCancellation: a cancelled batch returns the
// context's error and stops launching queries.
func TestStoreSearchAllContextCancellation(t *testing.T) {
	st, queries := storeCancelWorkload(t)
	batch := make([][]byte, 12)
	for i := range batch {
		batch[i] = queries[i%len(queries)]
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.SearchAllContext(cancelled, batch, SearchOptions{Threshold: 60}, 2); err != context.Canceled {
		t.Fatalf("cancelled SearchAll returned %v, want context.Canceled", err)
	}
	// And the store still serves batches afterwards.
	res, err := st.SearchAll(batch[:2], SearchOptions{Threshold: 60}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0] == nil || len(res[0].Hits) == 0 {
		t.Fatal("post-cancellation SearchAll returned no results")
	}
}

// TestStoreRejectsSeparatorQueries: a query containing the member
// separator byte is rejected at every store search entry point with a
// diagnostic, not answered with cross-member matches.
func TestStoreRejectsSeparatorQueries(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 4, 2000, 300, 7004)
	st, err := NewStore(wl.records, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bad := append(append([]byte("ACGTACGT"), seq.Separator), []byte("ACGTACGT")...)

	if _, err := st.Search(bad, SearchOptions{Threshold: 30}); err == nil || !strings.Contains(err.Error(), "separator") {
		t.Fatalf("Store.Search accepted a separator query (err=%v)", err)
	}
	ss := openStoreSession(t, st, SearchOptions{Threshold: 30})
	if _, err := searchSession(context.Background(), ss, bad); err == nil || !strings.Contains(err.Error(), "separator") {
		t.Fatalf("a store session accepted a separator query (err=%v)", err)
	}
	if _, err := st.SearchAll([][]byte{wl.queries[0], bad}, SearchOptions{Threshold: 30}, 2); err == nil || !strings.Contains(err.Error(), "separator") {
		t.Fatalf("Store.SearchAll accepted a separator query (err=%v)", err)
	}
	// Clean queries still work after the rejections.
	if _, err := st.Search(wl.queries[0], SearchOptions{Threshold: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreSaveFileRoundTrip: SaveFile → LoadStoreFile preserves the
// partition and the answers, leaves no temp litter, and overwrites
// atomically.
func TestStoreSaveFileRoundTrip(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 5, 2000, 300, 7005)
	st, err := NewStore(wl.records, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := SearchOptions{Threshold: 40}
	ref, err := st.Search(wl.queries[0], opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "db.alae")
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Saving again over the existing file must also work (the reload
	// cycle: rebuild, SaveFile, daemon reloads).
	if err := st.SaveFile(path); err != nil {
		t.Fatalf("overwriting SaveFile: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "db.alae" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("SaveFile left litter: %v", names)
	}

	loaded, err := LoadStoreFile(path, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Sequences().Len() != st.Sequences().Len() {
		t.Fatalf("round trip: %d/%d members", loaded.Sequences().Len(), st.Sequences().Len())
	}
	res, err := loaded.Search(wl.queries[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if !seqHitsEqual(res.Hits, ref.Hits) {
		t.Fatal("round trip changed the answers")
	}
}

// TestStoreSaveFileFailureLeavesNoTrace: a SaveFile that cannot
// complete (unwritable directory) errors without creating or damaging
// anything at the target path.
func TestStoreSaveFileFailureLeavesNoTrace(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 3, 500, 100, 7006)
	st, err := NewStore(wl.records, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "no-such-dir", "db.alae")
	if err := st.SaveFile(missing); err == nil {
		t.Fatal("SaveFile into a missing directory succeeded")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("failed SaveFile left something at the target: %v", err)
	}
}

// TestStoreSampleQuery: the serving probe's query source returns a
// separator-free copy of real store bytes that actually hits.
func TestStoreSampleQuery(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 4, 1000, 200, 7007)
	st, err := NewStore(wl.records, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := st.SampleQuery(64)
	if len(q) != 64 {
		t.Fatalf("SampleQuery returned %d bytes, want 64", len(q))
	}
	if err := validateStoreQuery(q); err != nil {
		t.Fatalf("sampled query contains a separator: %v", err)
	}
	res, err := st.Search(q, SearchOptions{Threshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("a sampled member prefix returned no hits")
	}
	// Oversized requests clamp to the longest member.
	if q := st.SampleQuery(1 << 30); len(q) == 0 || len(q) > st.Sequences().TotalLen() {
		t.Fatalf("clamped SampleQuery returned %d bytes", len(q))
	}
}
