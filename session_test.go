package alae

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/align"
	"repro/internal/seq"
)

// TestSessionReuseParity is the serving-core acceptance test: the same
// hits must come back whether a Session is fresh or re-armed, whether
// the search runs sequentially or in parallel — for both ALAE engines,
// over DNA and protein.
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
			for _, alg := range []Algorithm{ALAE, ALAEHybrid} {
				for _, par := range []int{1, 0} {
					opts := SearchOptions{Algorithm: alg, Scheme: c.scheme, Threshold: 25, Parallelism: par}
					ses, err := ix.OpenSession(opts)
					if err != nil {
						t.Fatal(err)
					}
					// Two passes re-arm the session. Every result must equal a
					// one-shot Index.Search, work counters included.
					for pass := 0; pass < 2; pass++ {
						for qi, q := range queries {
							got, err := ses.Search(q)
							if err != nil {
								t.Fatal(err)
							}
							want, err := ix.Search(q, opts)
							if err != nil {
								t.Fatal(err)
							}
							if !align.EqualHits(got.Hits, want.Hits) {
								t.Fatalf("%v p=%d pass %d query %d: session hits diverge (%d vs %d)",
									alg, par, pass, qi, len(got.Hits), len(want.Hits))
							}
							if got.Stats != want.Stats {
								t.Fatalf("%v p=%d pass %d query %d: stats diverge: %+v vs %+v",
									alg, par, pass, qi, got.Stats, want.Stats)
							}
						}
					}
					ses.Close()
					ses.Close() // idempotent
				}
			}
		})
	}
}

// TestShortQueryRejectedPublicSurface pins the too-short-query
// contract at the public layer: Index.Search and Session.Search reject
// queries shorter than the scheme's gram length for both ALAE engines
// with a descriptive error, while the Smith-Waterman baseline (which
// has no gram-length floor) still answers them.
func TestShortQueryRejectedPublicSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	ix := NewIndex(randDNA(400, rng))
	q := DefaultDNAScheme.Q()
	short := randDNA(q-1, rng)
	for _, alg := range []Algorithm{ALAE, ALAEHybrid} {
		opts := SearchOptions{Algorithm: alg, Threshold: 25}
		if _, err := ix.Search(short, opts); err == nil {
			t.Errorf("%v: Index.Search accepted a query of length %d < q=%d", alg, len(short), q)
		}
		ses, err := ix.OpenSession(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ses.Search(short); err == nil {
			t.Errorf("%v: Session.Search accepted a short query", alg)
		}
		// The session must stay usable after the rejection.
		if _, err := ses.Search(randDNA(50, rng)); err != nil {
			t.Errorf("%v: session broken after short-query rejection: %v", alg, err)
		}
		ses.Close()
	}
	if _, err := ix.Search(short, SearchOptions{Algorithm: SmithWaterman, Threshold: 25}); err != nil {
		t.Errorf("Smith-Waterman rejected a short query: %v", err)
	}
}

// TestSessionBaselineAlgorithms pins the fallback: sessions over the
// stateless baseline engines forward to Index.Search.
func TestSessionBaselineAlgorithms(t *testing.T) {
	text, query := workload(601, 2000, 300)
	ix := NewIndex(text)
	for _, alg := range []Algorithm{BWTSW, BLAST, SmithWaterman} {
		opts := SearchOptions{Algorithm: alg, Threshold: 25}
		ses, err := ix.OpenSession(opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ses.Search(query)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ix.Search(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !align.EqualHits(got.Hits, want.Hits) {
			t.Fatalf("%v: session hits diverge", alg)
		}
		ses.Close()
	}
	// Invalid configurations surface at open time for the ALAE engines.
	if _, err := ix.OpenSession(SearchOptions{Scheme: Scheme{Match: -1}}); err == nil {
		t.Error("invalid scheme accepted by OpenSession")
	}
	// Use after Close must error, not silently degrade to one-shots.
	ses, err := ix.OpenSession(SearchOptions{Threshold: 25})
	if err != nil {
		t.Fatal(err)
	}
	ses.Close()
	if _, err := ses.Search(query); err == nil {
		t.Error("Search on a closed session succeeded")
	}
}

// TestSaveLoadProteinRoundTrip is the byte-rank-layout round trip: a
// protein index (σ = 20 forces the byte rank core) must serialise and
// reload into an index that answers identically, for both ALAE engines
// and under session reuse.
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

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(loaded.Text(), text) {
		t.Fatal("protein text changed through save/load")
	}
	for _, alg := range []Algorithm{ALAE, ALAEHybrid} {
		o := opts
		o.Algorithm = alg
		ses, err := loaded.OpenSession(o)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ { // re-armed and cache-hot too
			got, err := ses.Search(query)
			if err != nil {
				t.Fatal(err)
			}
			if !align.EqualHits(got.Hits, want.Hits) {
				t.Fatalf("%v pass %d: loaded protein index returns %d hits, original %d",
					alg, pass, len(got.Hits), len(want.Hits))
			}
		}
		ses.Close()
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
