package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/seq"
)

// TestParallelSearchMatchesSequential is the scheduler's identity
// property: for both engine modes, any worker count produces exactly
// the sequential engine's hit set and the same work counters — the
// partition into fork families is identical, only the interleaving
// changes.
func TestParallelSearchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	s := align.DefaultDNA
	for _, mode := range []Mode{ModeDFS, ModeHybrid} {
		e := New(randDNA(4000, rng), Options{Mode: mode})
		for trial := 0; trial < 6; trial++ {
			query := randDNA(150+rng.Intn(250), rng)
			h := s.MinThreshold() + rng.Intn(8)

			seqC := align.NewCollector()
			seqSt, err := search(e, query, s, h, seqC, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := seqC.Hits()

			for _, workers := range []int{0, 2, 3, 7} {
				parC := align.NewCollector()
				parSt, err := search(e, query, s, h, parC, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got := parC.Hits(); !align.EqualHits(got, want) {
					t.Fatalf("mode %v workers %d trial %d: %d hits vs %d sequential",
						mode, workers, trial, len(got), len(want))
				}
				if parSt.CalculatedEntries() != seqSt.CalculatedEntries() {
					t.Fatalf("mode %v workers %d trial %d: CalculatedEntries %d vs %d",
						mode, workers, trial, parSt.CalculatedEntries(), seqSt.CalculatedEntries())
				}
				if parSt.ForksStarted != seqSt.ForksStarted ||
					parSt.NodesVisited != seqSt.NodesVisited ||
					parSt.MaxDepth != seqSt.MaxDepth {
					t.Fatalf("mode %v workers %d trial %d: stats diverge: %+v vs %+v",
						mode, workers, trial, parSt, seqSt)
				}
			}
		}
	}
}

// TestSearchLanesMatchesSequential pins the contract the store's
// shared-index scatter rides on: the work-stealing dispatcher with any
// lane count produces the sequential engine's exact hit set and the
// whole Stats struct — entries, emissions and suppressions included —
// because each family is processed exactly once on exactly one lane,
// counters are per-family sums, the collector merges by a commutative
// max and the dominance table is re-armed per family. Every lane count
// runs ten times so different steal interleavings are exercised; it is
// part of CI's race-enabled lane parity step.
func TestSearchLanesMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(780))
	dnaText := randDNA(3000, rng)
	dnaQuery := seq.Mutate(seq.DNA, dnaText[1000:1200], seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.01}, rng)
	dnaRepText, dnaRepQuery := emitWorkload(seq.DNA, 2000, 100, 781)
	protText, protQuery := emitWorkload(seq.Protein, 2000, 100, 782)
	for _, wl := range []struct {
		name        string
		text, query []byte
		s           align.Scheme
	}{
		{"dna", dnaText, dnaQuery, align.DefaultDNA},
		{"dna-repeats", dnaRepText, dnaRepQuery, align.DefaultDNA},
		{"protein-repeats", protText, protQuery, align.DefaultProtein},
	} {
		h := wl.s.MinThreshold() + 2
		for _, mode := range []Mode{ModeDFS, ModeHybrid} {
			e := New(wl.text, Options{Mode: mode})
			seqC := align.NewCollector()
			seqSt, err := search(e, wl.query, wl.s, h, seqC, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := seqC.Hits()
			if len(want) == 0 {
				t.Fatalf("%s: degenerate workload, no hits", wl.name)
			}
			ses := e.AcquireSession()
			c := align.NewCollector()
			for _, lanes := range []int{1, 2, 4, 9} {
				for rep := 0; rep < 10; rep++ {
					c.Reset()
					st, err := ses.SearchLanes(context.Background(), wl.query, wl.s, h, c, lanes)
					if err != nil {
						t.Fatal(err)
					}
					if got := c.Hits(); !align.EqualHits(got, want) {
						t.Fatalf("%s mode %v lanes %d rep %d: %d hits vs %d sequential", wl.name, mode, lanes, rep, len(got), len(want))
					}
					if st != seqSt {
						t.Fatalf("%s mode %v lanes %d rep %d: stats diverge:\n%+v\n%+v", wl.name, mode, lanes, rep, st, seqSt)
					}
				}
			}
			ses.Release()
		}
	}
}
