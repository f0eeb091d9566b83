package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/align"
	"repro/internal/seq"
)

// The emission-path suite: the batched run staging, the diagonal
// dominance filter and the two-level collector must be invisible in
// the results — hit sets byte-identical to the Smith-Waterman oracle
// and across engine modes, parallelism and the suppression switch —
// while the Emitted/Suppressed counters stay scheduling-invariant.

// emitWorkload builds a repeat-dense instance: the trie occurrence
// fan-out over near-identical repeats is what makes the emission path
// hot, stages overflow mid-row, and the dominance filter fire.
func emitWorkload(a *seq.Alphabet, n, m int, seed int64) (text, query []byte) {
	rng := rand.New(rand.NewSource(seed))
	text = seq.RandomGenome(a, seq.GenomeConfig{
		Length: n, RepeatFraction: 0.5, RepeatMutationRate: 0.02,
		RepeatMinLen: 100, RepeatMaxLen: 400,
	}, rng)
	src := len(text)/2 + rng.Intn(len(text)/2-m)
	query = seq.Mutate(a, text[src:src+m], seq.MutationConfig{
		SubstitutionRate: 0.03, IndelRate: 0.005,
	}, rng)
	return text, query
}

// TestEmitParitySuite pins the overhaul's acceptance gate in miniature:
// DNA and protein repeat-dense workloads, sequential / parallel /
// hybrid, all byte-identical to the oracle and to each other, with the
// emission counters invariant under worker count.
func TestEmitParitySuite(t *testing.T) {
	var suppressedTotal int64
	for _, wl := range []struct {
		name   string
		alpha  *seq.Alphabet
		scheme align.Scheme
		seed   int64
	}{
		{"dna", seq.DNA, align.DefaultDNA, 61},
		{"protein", seq.Protein, align.DefaultProtein, 62},
	} {
		t.Run(wl.name, func(t *testing.T) {
			text, query := emitWorkload(wl.alpha, 3000, 150, wl.seed)
			h := wl.scheme.MinThreshold() + 2
			want := align.LocalAll(text, query, wl.scheme, h)
			if len(want) == 0 {
				t.Fatalf("degenerate workload: no oracle hits")
			}
			for _, mode := range []Mode{ModeDFS, ModeHybrid} {
				e := New(text, Options{Mode: mode})
				seqC := align.NewCollector()
				seqSt, err := search(e, query, wl.scheme, h, seqC, 1)
				if err != nil {
					t.Fatal(err)
				}
				if !align.EqualHits(seqC.Hits(), want) {
					t.Fatalf("mode %v: %d hits vs oracle %d", mode, seqC.Len(), len(want))
				}
				if seqSt.EmittedHits == 0 {
					t.Fatalf("mode %v: no emissions recorded on an emitting workload", mode)
				}
				suppressedTotal += seqSt.SuppressedEmissions
				for _, workers := range []int{2, 5} {
					parC := align.NewCollector()
					parSt, err := search(e, query, wl.scheme, h, parC, workers)
					if err != nil {
						t.Fatal(err)
					}
					if !align.EqualHits(parC.Hits(), want) {
						t.Fatalf("mode %v workers %d: hits diverge from oracle", mode, workers)
					}
					if parSt.EmittedHits != seqSt.EmittedHits ||
						parSt.SuppressedEmissions != seqSt.SuppressedEmissions ||
						parSt.CopiedEmissions != seqSt.CopiedEmissions {
						t.Fatalf("mode %v workers %d: emission counters not scheduling-invariant: emitted %d/%d suppressed %d/%d copied %d/%d",
							mode, workers, parSt.EmittedHits, seqSt.EmittedHits,
							parSt.SuppressedEmissions, seqSt.SuppressedEmissions,
							parSt.CopiedEmissions, seqSt.CopiedEmissions)
					}
				}
			}
		})
	}
	if suppressedTotal == 0 {
		t.Error("dominance filter never fired across repeat-dense workloads; the filter is dead code")
	}
}

// TestHybridEmitParity is the vertical-phase overhaul's acceptance
// gate in miniature: on repeat-dense DNA and protein workloads the
// hybrid engine's hit set is byte-identical to the DFS engine's, its
// EmittedHits stays within 10% of DFS's (the watermark keeps re-walked
// branches from re-forwarding their shared rows), and the copy path
// actually fires (CopiedEmissions > 0 — branch-heavy repeats guarantee
// shared prefixes).
func TestHybridEmitParity(t *testing.T) {
	for _, wl := range []struct {
		name   string
		alpha  *seq.Alphabet
		scheme align.Scheme
		seed   int64
	}{
		{"dna", seq.DNA, align.DefaultDNA, 71},
		{"protein", seq.Protein, align.DefaultProtein, 72},
	} {
		t.Run(wl.name, func(t *testing.T) {
			text, query := emitWorkload(wl.alpha, 6000, 200, wl.seed)
			h := wl.scheme.MinThreshold() + 2

			dfs := New(text, Options{Mode: ModeDFS})
			dfsC := align.NewCollector()
			dfsSt, err := search(dfs, query, wl.scheme, h, dfsC, 1)
			if err != nil {
				t.Fatal(err)
			}
			hyb := New(text, Options{Mode: ModeHybrid})
			hybC := align.NewCollector()
			hybSt, err := search(hyb, query, wl.scheme, h, hybC, 1)
			if err != nil {
				t.Fatal(err)
			}

			if !align.EqualHits(hybC.Hits(), dfsC.Hits()) {
				t.Fatalf("hybrid hits diverge from DFS (%d vs %d)", hybC.Len(), dfsC.Len())
			}
			if dfsSt.EmittedHits == 0 {
				t.Fatal("degenerate workload: DFS emitted nothing")
			}
			if lo, hi := dfsSt.EmittedHits*9/10, dfsSt.EmittedHits*11/10; hybSt.EmittedHits < lo || hybSt.EmittedHits > hi {
				t.Fatalf("hybrid EmittedHits %d outside 10%% of DFS %d", hybSt.EmittedHits, dfsSt.EmittedHits)
			}
			if hybSt.CopiedEmissions == 0 {
				t.Fatal("hybrid copy path never fired on a repeat-dense workload; the watermark is dead code")
			}
			if dfsSt.CopiedEmissions != 0 {
				t.Fatalf("DFS reported %d CopiedEmissions; the counter is hybrid-only", dfsSt.CopiedEmissions)
			}
		})
	}
}

// TestPropertyCopyReuseLossless is the copy path's safety property: for
// any input, the hybrid engine with copy reuse produces exactly the hit
// set of the engine without it, and the emission books balance — every
// fan-out cell is forwarded, suppressed, or copied, never silently
// dropped, so Emitted+Suppressed+Copied is invariant under the switch.
func TestPropertyCopyReuseLossless(t *testing.T) {
	s := align.DefaultDNA
	f := func(in suppressionInput) bool {
		h := s.MinThreshold() + int(in.HOff)
		on := New(in.Text, Options{Mode: ModeHybrid})
		cOn := align.NewCollector()
		stOn, err := search(on, in.Query, s, h, cOn, 1)
		if err != nil {
			return false
		}
		off := New(in.Text, Options{Mode: ModeHybrid, DisableCopyReuse: true})
		cOff := align.NewCollector()
		stOff, err := search(off, in.Query, s, h, cOff, 1)
		if err != nil {
			return false
		}
		if stOff.CopiedEmissions != 0 {
			return false
		}
		onTotal := stOn.EmittedHits + stOn.SuppressedEmissions + stOn.CopiedEmissions
		offTotal := stOff.EmittedHits + stOff.SuppressedEmissions
		if onTotal != offTotal {
			return false
		}
		return align.EqualHits(cOn.Hits(), cOff.Hits())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEmitStageOverflow drives the flush-and-continue path hard. DNA:
// a single-letter text makes every q-gram occur everywhere, so fan-out
// and run lengths overflow the fixed stage capacities many times per
// band row. Protein: the query is a 1 400-residue copy of a text
// segment, so deep rows of its one path are dense bands whose every
// cell emits — single runs longer than the whole 1 024-cell stage,
// which emitRun must land in pieces. The result must still match the
// oracle exactly.
func TestEmitStageOverflow(t *testing.T) {
	const stageCells = 1024 // align's stageMaxCells
	rng := rand.New(rand.NewSource(63))
	dnaText := bytes.Repeat([]byte("A"), 400)
	dnaQuery := make([]byte, 60)
	for i := range dnaQuery {
		if rng.Intn(10) == 0 {
			dnaQuery[i] = 'C'
		} else {
			dnaQuery[i] = 'A'
		}
	}
	protText := seq.RandomSeq(seq.Protein, 2000, nil, rng)
	for _, wl := range []struct {
		name        string
		text, query []byte
		s           align.Scheme
		longRun     bool // some text end must hit > stageCells consecutive query ends
	}{
		{"dna", dnaText, dnaQuery, align.DefaultDNA, false},
		{"protein", protText, protText[300:1700], align.DefaultProtein, true},
	} {
		t.Run(wl.name, func(t *testing.T) {
			h := wl.s.MinThreshold() + 1
			want := align.LocalAll(wl.text, wl.query, wl.s, h)
			longest, run := 0, 0
			for k, hit := range want {
				if k > 0 && hit.TEnd == want[k-1].TEnd && hit.QEnd == want[k-1].QEnd+1 {
					run++
				} else {
					run = 1
				}
				longest = max(longest, run)
			}
			if wl.longRun && longest <= stageCells {
				t.Fatalf("degenerate workload: longest row run is %d cells, the stage holds %d", longest, stageCells)
			}
			for _, mode := range []Mode{ModeDFS, ModeHybrid} {
				e := New(wl.text, Options{Mode: mode})
				c := align.NewCollector()
				st, err := search(e, wl.query, wl.s, h, c, 1)
				if err != nil {
					t.Fatal(err)
				}
				if !align.EqualHits(c.Hits(), want) {
					t.Fatalf("mode %v: %d hits vs oracle %d", mode, c.Len(), len(want))
				}
				if st.EmittedHits < int64(len(want)) {
					t.Fatalf("mode %v: EmittedHits %d below distinct hit count %d", mode, st.EmittedHits, len(want))
				}
			}
		})
	}
}

// suppressionInput reuses the randomized generator shape of
// property_test.go but biases toward repetitive texts, where duplicate
// emissions (and so suppression) actually occur.
type suppressionInput struct {
	Text  []byte
	Query []byte
	HOff  uint8
	Mode  bool
}

func (suppressionInput) Generate(r *rand.Rand, _ int) reflect.Value {
	letters := []byte("ACGT")
	sigma := 2 + r.Intn(3) // small alphabets repeat heavily
	n := 20 + r.Intn(150)
	m := 8 + r.Intn(60)
	in := suppressionInput{
		Text:  make([]byte, n),
		Query: make([]byte, m),
		HOff:  uint8(r.Intn(6)),
		Mode:  r.Intn(2) == 0,
	}
	for i := range in.Text {
		in.Text[i] = letters[r.Intn(sigma)]
	}
	for i := range in.Query {
		in.Query[i] = letters[r.Intn(sigma)]
	}
	return reflect.ValueOf(in)
}

// TestPropertyEmitSuppressionLossless is the dominance filter's
// safety property: for any input, the engine with suppression produces
// exactly the hit set (per-pair maxima included) of the engine without
// it, and the books balance — every fan-out cell is either forwarded
// or suppressed, never silently dropped.
func TestPropertyEmitSuppressionLossless(t *testing.T) {
	s := align.DefaultDNA
	f := func(in suppressionInput) bool {
		h := s.MinThreshold() + int(in.HOff)
		opts := Options{}
		if in.Mode {
			opts.Mode = ModeHybrid
		}
		on := New(in.Text, opts)
		cOn := align.NewCollector()
		stOn, err := search(on, in.Query, s, h, cOn, 1)
		if err != nil {
			return false
		}
		offOpts := opts
		offOpts.DisableEmitSuppression = true
		off := New(in.Text, offOpts)
		cOff := align.NewCollector()
		stOff, err := search(off, in.Query, s, h, cOff, 1)
		if err != nil {
			return false
		}
		if stOff.SuppressedEmissions != 0 {
			return false
		}
		if stOn.EmittedHits+stOn.SuppressedEmissions != stOff.EmittedHits {
			return false
		}
		return align.EqualHits(cOn.Hits(), cOff.Hits())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// BenchmarkForwardRun times the dominance filter in front of the
// collector on the prot-emit shape: 48-cell row runs walking 40 rows
// down a diagonal, the family re-armed before every walk so nothing is
// suppressed and every cell is a lookup, a store and a collector
// revisit. filter=off is the same stream straight into AddRun; the
// difference is forwardRun's own cost per cell. 0 allocs/op.
func BenchmarkForwardRun(b *testing.B) {
	const rows, width = 40, 48
	run := make([]int32, width)
	for i := range run {
		run[i] = int32(30 + i%7)
	}
	for _, filter := range []string{"on", "off"} {
		b.Run("filter="+filter, func(b *testing.B) {
			ctx := kernelCtx(&kernelCase{scheme: align.DefaultProtein, mq: 300, h: 30})
			ctx.e.opts.DisableEmitSuppression = filter == "off"
			walk := func() {
				ctx.armDiag()
				for r := 0; r < rows; r++ {
					ctx.forwardRun(1000+r, 100+r, run)
				}
			}
			walk()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				walk()
			}
			if ctx.st.SuppressedEmissions != 0 || ctx.c.Len() != rows*width {
				b.Fatalf("%d suppressed, %d hits: the walk is not the one described", ctx.st.SuppressedEmissions, ctx.c.Len())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(rows*width), "ns/cell")
		})
	}
}
