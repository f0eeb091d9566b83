package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/qgram"
	"repro/internal/seq"
)

// Session tests: a session must be a pure serving lane (re-arming
// changes nothing observable), and a warm one must not allocate.

// TestSessionReuseIdenticalAcrossQueries runs an interleaved query
// stream twice through one re-armed session and through fresh
// one-shot searches; hits and work stats must match pairwise.
func TestSessionReuseIdenticalAcrossQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	text := randDNA(6000, rng)
	s := align.DefaultDNA
	queries := [][]byte{
		seq.Mutate(seq.DNA, text[100:600], seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.01}, rng),
		randDNA(300, rng),
		seq.Mutate(seq.DNA, text[3000:3400], seq.MutationConfig{SubstitutionRate: 0.08, IndelRate: 0.02}, rng),
	}
	for _, mode := range []Mode{ModeDFS, ModeHybrid} {
		e := New(text, Options{Mode: mode})
		ses := e.AcquireSession()
		for pass := 0; pass < 2; pass++ {
			for qi, query := range queries {
				h := 15
				cSes := align.NewCollector()
				stSes, err := ses.SearchContext(context.Background(), query, s, h, cSes, 1)
				if err != nil {
					t.Fatal(err)
				}
				// Fresh engine = fresh session.
				cFresh := align.NewCollector()
				stFresh, err := search(New(text, Options{Mode: mode}), query, s, h, cFresh, 1)
				if err != nil {
					t.Fatal(err)
				}
				if !align.EqualHits(cSes.Hits(), cFresh.Hits()) {
					t.Fatalf("mode %v pass %d query %d: re-armed session hits diverge from fresh", mode, pass, qi)
				}
				if stSes != stFresh {
					t.Fatalf("mode %v pass %d query %d: work stats diverge: %+v vs %+v",
						mode, pass, qi, stSes, stFresh)
				}
			}
		}
	}
}

// BenchmarkGramResolution isolates the resolution stage: the
// prefix-shared trie pass over every distinct gram of a query. DNA
// (packed rank, q=11, long shared prefixes) and protein (plane rank,
// q=4) have very different walk costs, so both run.
func BenchmarkGramResolution(b *testing.B) {
	rng := rand.New(rand.NewSource(504))
	bench := func(b *testing.B, text, query []byte, s align.Scheme) {
		e := New(text, Options{})
		qidx, err := qgram.New(query, s.Q(), e.trie.Letters())
		if err != nil {
			b.Fatal(err)
		}
		ses := e.AcquireSession()
		var st Stats
		ses.resolveFamilies(qidx, &st) // warm session buffers
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			st = Stats{}
			ses.resolveFamilies(qidx, &st)
		}
	}
	b.Run("dna", func(b *testing.B) {
		bench(b, randDNA(200_000, rng), randDNA(5_000, rng), align.DefaultDNA)
	})
	b.Run("protein", func(b *testing.B) {
		letters := seq.Protein.Letters()
		randProt := func(n int) []byte {
			out := make([]byte, n)
			for i := range out {
				out[i] = letters[rng.Intn(len(letters))]
			}
			return out
		}
		bench(b, randProt(200_000), randProt(5_000), align.DefaultProtein)
	})
}

// TestSessionSearchAllocFree is the end-to-end steady-state contract
// the ROADMAP's "qgram index reuse" item completes: with the gram
// table, the search context and the stats all session-owned and
// re-armed in place, a warm sequential Session.SearchContext must not
// allocate at all — not just the per-gram traversal path
// (TestPerGramPathAllocFree) but the whole query: gram-table rearm,
// resolution, δ/bound table rebuild, traversal and emission.
func TestSessionSearchAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	text := randDNA(20_000, rng)
	query := seq.Mutate(seq.DNA, text[2_000:2_300],
		seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.01}, rng)
	// A repeat-dense workload keeps the emission path hot: large
	// occurrence fan-out, run staging overflows and dominance-filter
	// traffic every query, so the gate also covers the two-level
	// collector's steady state.
	emitText, emitQuery := emitWorkload(seq.DNA, 20_000, 300, 507)
	s := align.DefaultDNA
	h := 25
	for _, tc := range []struct {
		name        string
		opts        Options
		text, query []byte
	}{
		{"dfs-walk", Options{}, text, query},
		{"hybrid-walk", Options{Mode: ModeHybrid}, text, query},
		{"dfs-emit-heavy", Options{}, emitText, emitQuery},
		{"hybrid-emit-heavy", Options{Mode: ModeHybrid}, emitText, emitQuery},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(tc.text, tc.opts)
			ses := e.AcquireSession()
			defer ses.Release()
			c := align.NewCollector()
			for warm := 0; warm < 2; warm++ {
				c.Reset()
				if _, err := ses.SearchContext(context.Background(), tc.query, s, h, c, 1); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(5, func() {
				c.Reset()
				if _, err := ses.SearchContext(context.Background(), tc.query, s, h, c, 1); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Fatalf("warm sequential Session.SearchContext allocated %.1f objects per query; must be 0", allocs)
			}
		})
	}
}
