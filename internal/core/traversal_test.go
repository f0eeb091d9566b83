package core

import (
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/qgram"
	"repro/internal/seq"
)

// The flat-traversal tests: the explicit-stack DFS with its
// structure-of-arrays band slab, the single-occurrence LF walk
// (dfsLinear), and the prefix-shared gram resolution must all be
// invisible — every hit set equals the Gotoh oracle, and resolution
// matches the naive per-gram Walk.

// TestFlatTraversalDeepLinearPaths plants long unique homologous runs
// so the walk survives far past the gram depth on width-one nodes and
// the dfsLinear handoff (including its lazy position resolution)
// carries most of the work. DNA and protein texts both run: protein
// exercises the byte-rank fallback and a 20-letter delta table.
func TestFlatTraversalDeepLinearPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	type tc struct {
		name    string
		alpha   *seq.Alphabet
		scheme  align.Scheme
		n, h    int
		mutRate float64
	}
	cases := []tc{
		{"dna", seq.DNA, align.DefaultDNA, 4000, 20, 0.03},
		{"dna-exact", seq.DNA, align.DefaultDNA, 4000, 25, 0},
		{"protein", seq.Protein, align.DefaultProtein, 1500, 18, 0.05},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			letters := c.alpha.Letters()
			randSeq := func(n int) []byte {
				out := make([]byte, n)
				for i := range out {
					out[i] = letters[rng.Intn(len(letters))]
				}
				return out
			}
			for trial := 0; trial < 6; trial++ {
				text := randSeq(c.n)
				// A long, deep, (almost) unique run: a random text of
				// this size has unique substrings beyond ~log_σ(n)
				// characters, so most of this path is width-one.
				lo := 100 + rng.Intn(c.n/2)
				run := text[lo : lo+300]
				var query []byte
				query = append(query, randSeq(30)...)
				if c.mutRate > 0 {
					query = append(query, seq.Mutate(c.alpha, run,
						seq.MutationConfig{SubstitutionRate: c.mutRate, IndelRate: c.mutRate / 2}, rng)...)
				} else {
					query = append(query, run...)
				}
				query = append(query, randSeq(30)...)
				got, st := runEngine(t, text, query, c.scheme, c.h, Options{})
				want := oracle(text, query, c.scheme, c.h)
				if !align.EqualHits(got, want) {
					t.Fatalf("trial %d: flat DFS disagrees with oracle\n got %d hits\nwant %d hits", trial, len(got), len(want))
				}
				if len(want) == 0 {
					t.Fatalf("trial %d: vacuous workload", trial)
				}
				if st.MaxDepth < st.Q+20 {
					t.Fatalf("trial %d: max depth %d never went deep (q=%d); linear handoff not exercised", trial, st.MaxDepth, st.Q)
				}
			}
		})
	}
}

// TestPrefixSharedResolutionMatchesWalk cross-checks resolveFamilies
// against the naive per-gram root Walk on queries engineered to hit
// every LCP shape: maximal sharing (LCP = q−1 chains from homopolymer
// runs), no sharing (LCP = 0 at letter boundaries), and absent grams
// (the text lacks a letter the query uses, so whole prefix groups die
// at several depths).
func TestPrefixSharedResolutionMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	s := align.DefaultDNA
	q := s.Q()
	texts := [][]byte{
		randDNA(2000, rng),
		// No 'T' in the text: every query gram containing T is absent,
		// and the resolver must prune them by shared failed prefix.
		func() []byte {
			letters := []byte("ACG")
			out := make([]byte, 1500)
			for i := range out {
				out[i] = letters[rng.Intn(3)]
			}
			return out
		}(),
	}
	queries := [][]byte{
		randDNA(300, rng),
		// Homopolymer runs: consecutive sorted grams share q−1 chars.
		[]byte("AAAAAAAAAACCCCCCCCCCGGGGGGGGGGTTTTTTTTTT"),
		// Alternating blocks: sorted neighbours often share nothing.
		[]byte("ACGTACGTACGTTGCATGCATGCAAAAATTTTTCCCCCGGGGG"),
	}
	for ti, text := range texts {
		e := New(text, Options{})
		for qi, query := range queries {
			qidx, err := qgram.New(query, q, e.trie.Letters())
			if err != nil {
				t.Fatal(err)
			}
			var st Stats
			ses := e.AcquireSession()
			fams := ses.resolveFamilies(qidx, &st)

			// Naive resolution: one root Walk per distinct gram.
			type naive struct {
				lo, hi int
				cols   []int32
			}
			var wantFams []naive
			var wantConsidered, wantAbsent int64
			qidx.GramsSorted(func(gram []byte, cols []int32) {
				wantConsidered += int64(len(cols))
				node, ok := e.trie.Walk(gram)
				if !ok {
					wantAbsent += int64(len(cols))
					return
				}
				wantFams = append(wantFams, naive{lo: node.Lo, hi: node.Hi, cols: cols})
			})
			if st.ForksConsidered != wantConsidered || st.ForksAbsent != wantAbsent {
				t.Fatalf("text %d query %d: accounting considered=%d absent=%d, want %d/%d",
					ti, qi, st.ForksConsidered, st.ForksAbsent, wantConsidered, wantAbsent)
			}
			if len(fams) != len(wantFams) {
				t.Fatalf("text %d query %d: %d families, want %d", ti, qi, len(fams), len(wantFams))
			}
			for k, f := range fams {
				w := wantFams[k]
				if f.node.Lo != w.lo || f.node.Hi != w.hi || f.node.Depth != q {
					t.Fatalf("text %d query %d family %d (%q): node [%d,%d)@%d, want [%d,%d)@%d",
						ti, qi, k, f.gram, f.node.Lo, f.node.Hi, f.node.Depth, w.lo, w.hi, q)
				}
				if len(f.cols) != len(w.cols) {
					t.Fatalf("text %d query %d family %d: cols %v want %v", ti, qi, k, f.cols, w.cols)
				}
			}
			// And exactness end to end on the same pairing.
			for _, h := range []int{s.MinThreshold(), 10} {
				got, _ := runEngine(t, text, query, s, h, Options{})
				want := oracle(text, query, s, h)
				if !align.EqualHits(got, want) {
					t.Fatalf("text %d query %d h=%d: hits diverge", ti, qi, h)
				}
			}
		}
	}
}

// TestFlatTraversalPropertyMixed is the randomized cross-check of the
// flat traversal over mixed DNA/protein inputs with and without
// planted homology, at thresholds from the exactness floor upward.
func TestFlatTraversalPropertyMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 120; trial++ {
		var (
			alpha  *seq.Alphabet
			scheme align.Scheme
		)
		if trial%3 == 2 {
			alpha, scheme = seq.Protein, align.DefaultProtein
		} else {
			alpha, scheme = seq.DNA, align.DefaultDNA
		}
		letters := alpha.Letters()
		n := 50 + rng.Intn(300)
		m := 10 + rng.Intn(120)
		text := make([]byte, n)
		for i := range text {
			text[i] = letters[rng.Intn(len(letters))]
		}
		query := make([]byte, m)
		for i := range query {
			query[i] = letters[rng.Intn(len(letters))]
		}
		if trial%2 == 0 && m > 12 && n > 30 {
			l := min(m-4, n-5)
			copy(query[2:], text[3:3+l])
		}
		h := scheme.MinThreshold() + rng.Intn(10)
		got, _ := runEngine(t, text, query, scheme, h, Options{})
		want := oracle(text, query, scheme, h)
		if !align.EqualHits(got, want) {
			t.Fatalf("trial %d (T=%q P=%q H=%d):\n got %v\nwant %v", trial, text, query, h, got, want)
		}
	}
}

// benchTraversalCtx builds a ready-to-run searchCtx plus resolved
// families over a planted-homology workload, mirroring what
// Session.Search sets up per search.
func benchTraversalCtx(b testing.TB, n, runLen int, opts Options) (*searchCtx, []gramFamily) {
	b.Helper()
	rng := rand.New(rand.NewSource(77))
	text := randDNA(n, rng)
	s := align.DefaultDNA
	// A mostly random query with one planted homologous run: enough to
	// exercise the band sweep, seeds, emission and the linear handoff
	// without the pathological all-homology blowup a full-copy query
	// at a low threshold produces.
	query := append(randDNA(400, rng), append(
		seq.Mutate(seq.DNA, text[n/4:n/4+runLen],
			seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.02}, rng),
		randDNA(400, rng)...)...)
	h := 25
	e := New(text, opts)
	qidx, err := qgram.New(query, s.Q(), e.trie.Letters())
	if err != nil {
		b.Fatal(err)
	}
	st := &Stats{Threshold: h, Q: s.Q(), Lmax: s.Lmax(len(query), h)}
	ses := e.AcquireSession()
	fams := ses.resolveFamilies(qidx, st)
	dom, err := e.DominationIndex(s.Q())
	if err != nil {
		b.Fatal(err)
	}
	ctx := &searchCtx{
		e: e, query: query, s: s, h: h,
		c: align.NewCollector(), st: st,
		lmax:     st.Lmax,
		gOpen:    -(s.GapOpen + s.GapExtend),
		delta:    buildDeltaTableInto(nil, e.trie.Letters(), query, s),
		colBound: buildColBoundsInto(nil, len(query), h, s, false),
		dom:      dom,
		barrier:  -1,
		ws:       ses.ws[0],
	}
	return ctx, fams
}

// TestPerGramPathAllocFree enforces the steady-state zero-allocation
// contract of the per-gram path (processGram → dfsGram →
// advanceMergedBand) as a failing test, not just a benchmark report:
// after one warm pass, reprocessing every family must allocate
// nothing.
func TestPerGramPathAllocFree(t *testing.T) {
	ctx, fams := benchTraversalCtx(t, 20_000, 200, Options{})
	for i := range fams {
		ctx.processGram(&fams[i]) // warm the workspace slabs and collector
	}
	allocs := testing.AllocsPerRun(3, func() {
		for i := range fams {
			ctx.processGram(&fams[i])
		}
	})
	if allocs > 0 {
		t.Fatalf("per-gram path allocated %.1f objects per sweep; must be 0 in steady state", allocs)
	}
}

// TestHybridPerGramPathAllocFree is the same contract for ModeHybrid:
// with the oracle bands living in the per-level frame slabs, the
// vertical columns in the workspace arenas and the common-prefix tree
// Reset-able, the reuse engine's whole per-gram path (processGram →
// hybridGram → descend → verticals) must be allocation-free once warm
// — the steady-state-zero property the DFS engine has had since PR 2.
func TestHybridPerGramPathAllocFree(t *testing.T) {
	ctx, fams := benchTraversalCtx(t, 20_000, 200, Options{Mode: ModeHybrid})
	for i := range fams {
		ctx.processGram(&fams[i]) // warm frames, slabs, arenas, collector
	}
	allocs := testing.AllocsPerRun(3, func() {
		for i := range fams {
			ctx.processGram(&fams[i])
		}
	})
	if allocs > 0 {
		t.Fatalf("hybrid per-gram path allocated %.1f objects per sweep; must be 0 in steady state", allocs)
	}
}

// BenchmarkDFSTraversal times the per-gram hot path in isolation —
// processGram → dfsGram → dfsWalk/dfsLinear → advanceMergedBand — over
// pre-resolved families with a warm workspace. The headline metric is
// allocs/op: the whole path must be allocation-free in steady state
// (the collector and workspace are warmed before the timer starts).
func BenchmarkDFSTraversal(b *testing.B) {
	ctx, fams := benchTraversalCtx(b, 100_000, 300, Options{})
	// Warm: size every workspace slab and the collector table.
	for i := range fams {
		ctx.processGram(&fams[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := range fams {
			ctx.processGram(&fams[i])
		}
	}
	b.ReportMetric(float64(ctx.st.CalculatedEntries())/float64(b.N+1), "entries")
}
