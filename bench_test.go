// Benchmarks regenerating every table and figure of the paper's
// evaluation (§7) plus the §6 bounds and the §7.1 Smith-Waterman
// anchor. Workload sizes are laptop-scaled (see DESIGN.md); the
// paper's absolute numbers are not reproducible on its 2012 testbed,
// but the shapes — who wins, by what factor, where the crossovers
// fall — are asserted in EXPERIMENTS.md from these benchmarks'
// custom metrics (hits/op, entries/op, ratios).
//
// Run with: go test -bench=. -benchmem
package alae_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro"
	"repro/internal/align"
	"repro/internal/analysis"
	"repro/internal/bwt"
	"repro/internal/exp"
)

// workloadCache shares built indexes across sub-benchmark invocations
// (the testing package re-runs benchmark functions with growing b.N).
var workloadCache sync.Map

type cachedWorkload struct {
	wl exp.Workload
	ix *alae.Index
}

type wlKey struct {
	kind    string
	n, m    int
	queries int
	seed    int64
}

func getWorkload(b *testing.B, k wlKey) cachedWorkload {
	b.Helper()
	if v, ok := workloadCache.Load(k); ok {
		return v.(cachedWorkload)
	}
	var wl exp.Workload
	switch k.kind {
	case "dna":
		wl = exp.DNAWorkload(k.n, k.m, k.queries, k.seed)
	case "protein":
		wl = exp.ProteinWorkload(k.n, k.m, k.queries, k.seed)
	case "protein-emit":
		wl = exp.ProteinEmissionWorkload(k.n, k.m, k.queries, k.seed)
	default:
		b.Fatalf("unknown workload kind %q", k.kind)
	}
	cw := cachedWorkload{wl: wl, ix: alae.NewIndex(wl.Text)}
	workloadCache.Store(k, cw)
	return cw
}

// benchSearch times one algorithm over a workload and reports the
// paper's per-table metrics.
func benchSearch(b *testing.B, cw cachedWorkload, opts alae.SearchOptions) {
	b.Helper()
	b.ResetTimer()
	var last exp.Measurement
	for i := 0; i < b.N; i++ {
		last = exp.Measure(cw.ix, cw.wl, opts)
		if last.Err != nil {
			b.Fatal(last.Err)
		}
	}
	b.ReportMetric(float64(last.Hits), "hits")
	b.ReportMetric(float64(last.Stats.CalculatedEntries), "entries")
	if last.Stats.ReusedEntries > 0 {
		b.ReportMetric(float64(last.Stats.ReusedEntries), "reused")
	}
}

// --- Table 2: time and result counts vs query length m ---

func BenchmarkTable2(b *testing.B) {
	const n = 200_000
	for _, m := range []int{1_000, 5_000, 20_000} {
		k := wlKey{kind: "dna", n: n, m: m, queries: 2, seed: 42}
		for _, alg := range []alae.Algorithm{alae.ALAE, alae.BLAST, alae.BWTSW} {
			b.Run(alg.String()+"/m="+itoa(m), func(b *testing.B) {
				benchSearch(b, getWorkload(b, k), alae.SearchOptions{Algorithm: alg})
			})
		}
	}
}

// --- Table 3: time and result counts vs text length n ---

func BenchmarkTable3(b *testing.B) {
	const m = 5_000
	for _, n := range []int{100_000, 200_000, 400_000} {
		k := wlKey{kind: "dna", n: n, m: m, queries: 2, seed: 43}
		for _, alg := range []alae.Algorithm{alae.ALAE, alae.BLAST, alae.BWTSW} {
			b.Run(alg.String()+"/n="+itoa(n), func(b *testing.B) {
				benchSearch(b, getWorkload(b, k), alae.SearchOptions{Algorithm: alg})
			})
		}
	}
}

// --- Table 4: calculated entries and weighted cost, ALAE vs BWT-SW ---

func BenchmarkTable4(b *testing.B) {
	k := wlKey{kind: "dna", n: 200_000, m: 5_000, queries: 2, seed: 44}
	cw := getWorkload(b, k)
	for _, alg := range []alae.Algorithm{alae.ALAE, alae.BWTSW} {
		b.Run(alg.String(), func(b *testing.B) {
			var last exp.Measurement
			for i := 0; i < b.N; i++ {
				last = exp.Measure(cw.ix, cw.wl, alae.SearchOptions{Algorithm: alg})
				if last.Err != nil {
					b.Fatal(last.Err)
				}
			}
			b.ReportMetric(float64(last.Stats.CalculatedEntries), "entries")
			b.ReportMetric(float64(last.Stats.ComputationCost), "cost")
		})
	}
}

// --- Table 5: reuse accounting for the extreme schemes ---

func BenchmarkTable5(b *testing.B) {
	k := wlKey{kind: "dna", n: 100_000, m: 5_000, queries: 2, seed: 45}
	cw := getWorkload(b, k)
	schemes := []alae.Scheme{
		{Match: 1, Mismatch: -1, GapOpen: -5, GapExtend: -2},
		{Match: 1, Mismatch: -3, GapOpen: -2, GapExtend: -2},
	}
	for _, s := range schemes {
		b.Run(s.String(), func(b *testing.B) {
			var last exp.Measurement
			for i := 0; i < b.N; i++ {
				last = exp.Measure(cw.ix, cw.wl,
					alae.SearchOptions{Algorithm: alae.ALAEHybrid, Scheme: s})
				if last.Err != nil {
					b.Fatal(last.Err)
				}
			}
			b.ReportMetric(float64(last.Stats.ReusedEntries), "reused")
			b.ReportMetric(float64(last.Stats.AccessedEntries), "accessed")
			b.ReportMetric(float64(last.Stats.CalculatedEntries), "entries")
		})
	}
}

// --- Figure 7: filtering and reusing ratios vs m and n ---

func BenchmarkFig7(b *testing.B) {
	cases := []struct {
		name string
		n, m int
	}{
		{"m=1000", 200_000, 1_000},
		{"m=5000", 200_000, 5_000},
		{"m=20000", 200_000, 20_000},
		{"n=100000", 100_000, 5_000},
		{"n=400000", 400_000, 5_000},
	}
	for _, tc := range cases {
		k := wlKey{kind: "dna", n: tc.n, m: tc.m, queries: 2, seed: 46}
		b.Run(tc.name, func(b *testing.B) {
			cw := getWorkload(b, k)
			var filtering, reusing float64
			for i := 0; i < b.N; i++ {
				a := exp.Measure(cw.ix, cw.wl, alae.SearchOptions{Algorithm: alae.ALAE})
				bw := exp.Measure(cw.ix, cw.wl, alae.SearchOptions{Algorithm: alae.BWTSW})
				hy := exp.Measure(cw.ix, cw.wl, alae.SearchOptions{Algorithm: alae.ALAEHybrid})
				for _, m := range []exp.Measurement{a, bw, hy} {
					if m.Err != nil {
						b.Fatal(m.Err)
					}
				}
				filtering = exp.FilteringRatio(a.Stats.CalculatedEntries, bw.Stats.CalculatedEntries)
				reusing = float64(hy.Stats.ReusedEntries) / float64(max(hy.Stats.AccessedEntries, 1))
			}
			b.ReportMetric(100*filtering, "filtering%")
			b.ReportMetric(100*reusing, "reusing%")
		})
	}
}

// --- Figure 8: ALAE vs E-value ---

func BenchmarkFig8(b *testing.B) {
	k := wlKey{kind: "dna", n: 200_000, m: 5_000, queries: 2, seed: 47}
	for _, tc := range []struct {
		name string
		e    float64
	}{{"E=1e-15", 1e-15}, {"E=1e-5", 1e-5}, {"E=10", 10}} {
		b.Run(tc.name, func(b *testing.B) {
			benchSearch(b, getWorkload(b, k),
				alae.SearchOptions{Algorithm: alae.ALAE, EValue: tc.e})
		})
	}
}

// --- Figure 9: schemes × algorithms ---

func BenchmarkFig9(b *testing.B) {
	k := wlKey{kind: "dna", n: 100_000, m: 5_000, queries: 2, seed: 48}
	for _, s := range align.Fig9Schemes {
		for _, alg := range []alae.Algorithm{alae.ALAE, alae.BLAST, alae.BWTSW} {
			if alg == alae.BWTSW && !s.BWTSWCompatible() {
				continue // the paper omits BWT-SW on <1,-1,-5,-2> too
			}
			b.Run(s.String()+"/"+alg.String(), func(b *testing.B) {
				benchSearch(b, getWorkload(b, k),
					alae.SearchOptions{Algorithm: alg, Scheme: alae.Scheme(s)})
			})
		}
	}
}

// --- Figure 10: per-scheme ratios ---

func BenchmarkFig10(b *testing.B) {
	k := wlKey{kind: "dna", n: 100_000, m: 5_000, queries: 2, seed: 49}
	for _, s := range align.Fig9Schemes {
		if !s.BWTSWCompatible() {
			continue
		}
		b.Run(s.String(), func(b *testing.B) {
			cw := getWorkload(b, k)
			var filtering, reusing float64
			for i := 0; i < b.N; i++ {
				a := exp.Measure(cw.ix, cw.wl, alae.SearchOptions{Algorithm: alae.ALAE, Scheme: alae.Scheme(s)})
				bw := exp.Measure(cw.ix, cw.wl, alae.SearchOptions{Algorithm: alae.BWTSW, Scheme: alae.Scheme(s)})
				hy := exp.Measure(cw.ix, cw.wl, alae.SearchOptions{Algorithm: alae.ALAEHybrid, Scheme: alae.Scheme(s)})
				for _, m := range []exp.Measurement{a, bw, hy} {
					if m.Err != nil {
						b.Fatal(m.Err)
					}
				}
				filtering = exp.FilteringRatio(a.Stats.CalculatedEntries, bw.Stats.CalculatedEntries)
				reusing = float64(hy.Stats.ReusedEntries) / float64(max(hy.Stats.AccessedEntries, 1))
			}
			b.ReportMetric(100*filtering, "filtering%")
			b.ReportMetric(100*reusing, "reusing%")
		})
	}
}

// --- Figure 11: index construction and sizes ---

func BenchmarkFig11(b *testing.B) {
	for _, tc := range []struct {
		kind string
		n    int
	}{
		{"dna", 250_000}, {"dna", 500_000},
		{"protein", 100_000}, {"protein", 200_000},
	} {
		b.Run(tc.kind+"/n="+itoa(tc.n), func(b *testing.B) {
			k := wlKey{kind: tc.kind, n: tc.n, m: 64, queries: 1, seed: 50}
			cw := getWorkload(b, k)
			scheme := alae.DefaultDNAScheme
			if tc.kind == "protein" {
				scheme = alae.DefaultProteinScheme
			}
			var bwtSize, domSize int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix := alae.NewIndex(cw.wl.Text)
				bwtSize = ix.PackedSizeBytes()
				var err error
				domSize, err = ix.DominationIndexSize(scheme)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(tc.n))
			b.ReportMetric(float64(bwtSize), "bwt-bytes")
			b.ReportMetric(float64(domSize), "dominate-bytes")
		})
	}
}

// --- §6: closed-form bounds ---

func BenchmarkSection6Bounds(b *testing.B) {
	var coeff float64
	for i := 0; i < b.N; i++ {
		bound, err := analysis.Compute(align.DefaultDNA, 4)
		if err != nil {
			b.Fatal(err)
		}
		coeff = bound.Coefficient
	}
	b.ReportMetric(coeff, "coefficient")
}

// --- §7.1: the Smith-Waterman anchor ("too slow to be considered") ---

func BenchmarkSmithWaterman(b *testing.B) {
	k := wlKey{kind: "dna", n: 200_000, m: 5_000, queries: 2, seed: 42}
	b.Run("n=200000/m=5000", func(b *testing.B) {
		benchSearch(b, getWorkload(b, k),
			alae.SearchOptions{Algorithm: alae.SmithWaterman})
	})
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- Ablations: what each filter buys (DESIGN.md's design-choice benches) ---

func BenchmarkAblation(b *testing.B) {
	k := wlKey{kind: "dna", n: 200_000, m: 5_000, queries: 2, seed: 51}
	cw := getWorkload(b, k)
	h, err := cw.ix.ResolveThreshold(5_000, alae.SearchOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		opts alae.SearchOptions
	}{
		{"all-filters", alae.SearchOptions{Threshold: h}},
		{"no-score-filter", alae.SearchOptions{Threshold: h, DisableScoreFilter: true}},
		{"no-length-filter", alae.SearchOptions{Threshold: h, DisableLengthFilter: true}},
		{"no-domination", alae.SearchOptions{Threshold: h, DisableDomination: true}},
		{"no-filters", alae.SearchOptions{Threshold: h,
			DisableScoreFilter: true, DisableLengthFilter: true, DisableDomination: true}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var last exp.Measurement
			for i := 0; i < b.N; i++ {
				last = exp.Measure(cw.ix, cw.wl, tc.opts)
				if last.Err != nil {
					b.Fatal(last.Err)
				}
			}
			b.ReportMetric(float64(last.Stats.CalculatedEntries), "entries")
			b.ReportMetric(float64(last.Stats.ForksDominated), "dominated")
		})
	}
}

// --- Rank core: bit-parallel packed layout vs the byte-scan layout ---

// benchRank times single-code ranks and batched all-code ranks at
// pseudo-random rows, the access pattern of backward search.
func benchRank(b *testing.B, fm *bwt.FMIndex) {
	rows := make([]int, 4096)
	rng := rand.New(rand.NewSource(7))
	for i := range rows {
		rows[i] = rng.Intn(fm.Rows() + 1)
	}
	b.Run("rank", func(b *testing.B) {
		var sink int32
		for i := 0; i < b.N; i++ {
			sink += fm.Rank(i&(fm.Sigma()-1), rows[i&4095])
		}
		_ = sink
	})
	b.Run("ranksAll", func(b *testing.B) {
		counts := make([]int32, fm.Sigma())
		for i := 0; i < b.N; i++ {
			fm.RanksAll(rows[i&4095], counts)
		}
	})
}

// BenchmarkRankDNA compares the two rank layouts on a DNA-sized
// alphabet; the packed sub-benchmarks should run several times faster
// than the byte ones.
func BenchmarkRankDNA(b *testing.B) {
	letters := []byte("ACGT")
	text := make([]byte, 1<<20)
	rng := rand.New(rand.NewSource(3))
	for i := range text {
		text[i] = letters[rng.Intn(4)]
	}
	b.Run("packed", func(b *testing.B) { benchRank(b, bwt.New(text)) })
	b.Run("byte", func(b *testing.B) {
		benchRank(b, bwt.NewWithOptions(text, bwt.Options{ForceByteRank: true}))
	})
}

// BenchmarkRankProtein exercises the σ=20 byte fallback (its
// checkpoint scan is a single pass since the packed-rank change).
func BenchmarkRankProtein(b *testing.B) {
	letters := []byte("ACDEFGHIKLMNPQRSTVWY")
	text := make([]byte, 1<<20)
	rng := rand.New(rand.NewSource(4))
	for i := range text {
		text[i] = letters[rng.Intn(len(letters))]
	}
	benchRank(b, bwt.New(text))
}

// --- Parallel fork-family scheduling: sequential vs all cores ---

func BenchmarkParallelSearch(b *testing.B) {
	// The Table 2 workload point (n=200k, m=5000).
	k := wlKey{kind: "dna", n: 200_000, m: 5_000, queries: 2, seed: 42}
	cw := getWorkload(b, k)
	cases := []struct {
		name string
		p    int
	}{{"p=1", 1}, {"p=max", 0}}
	if runtime.NumCPU() == 1 {
		b.Logf("NumCPU=1: p=max degenerates to the sequential engine")
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			benchSearch(b, cw, alae.SearchOptions{Algorithm: alae.ALAE, Parallelism: tc.p})
		})
	}
}

// --- Emission path: homologous protein, the emission-heavy point ---

// BenchmarkProteinEmission times the workload the emit-path overhaul
// targets: homologous protein queries whose wide surviving bands make
// collector traffic (not rank) the wall. Sizing follows the ROADMAP
// finding (homologous queries ≤ ~1200 on ≤ 60 kb texts).
func BenchmarkProteinEmission(b *testing.B) {
	k := wlKey{kind: "protein-emit", n: 30_000, m: 300, queries: 2, seed: 53}
	cw := getWorkload(b, k)
	for _, alg := range []alae.Algorithm{alae.ALAE, alae.ALAEHybrid} {
		b.Run(alg.String(), func(b *testing.B) {
			benchSearch(b, cw, alae.SearchOptions{Algorithm: alg, Parallelism: 1})
		})
	}
}

// rowRun is one emitted row run: n consecutive qEnds from qEnd0 at one
// tEnd, scores at cells[off : off+n].
type rowRun struct{ tEnd, qEnd0, off, n int }

// proteinEmitRuns searches the protein-emit workload's first query
// (~290k hits) and cuts its hits into the row runs the engines emit.
func proteinEmitRuns(b *testing.B) (hits []align.Hit, runs []rowRun, cells []int32) {
	k := wlKey{kind: "protein-emit", n: 30_000, m: 300, queries: 2, seed: 53}
	cw := getWorkload(b, k)
	res, err := cw.ix.Search(cw.wl.Queries[0], alae.SearchOptions{Algorithm: alae.ALAE, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i, h := range res.Hits {
		if i == 0 || res.Hits[i-1].TEnd != h.TEnd || res.Hits[i-1].QEnd != h.QEnd-1 {
			runs = append(runs, rowRun{tEnd: h.TEnd, qEnd0: h.QEnd, off: i})
		}
		runs[len(runs)-1].n++
		cells = append(cells, int32(h.Score))
	}
	return res.Hits, runs, cells
}

// BenchmarkCollectorDrain times the result path's last step on that
// workload's own hit set: one query's hits, re-staged into a collector
// as row runs, drained by Hits. A warm drain sorts tile keys, never
// hits, in scratch the collector keeps: -benchmem must show
// 1 alloc/op, the result slice.
func BenchmarkCollectorDrain(b *testing.B) {
	hits, runs, cells := proteinEmitRuns(b)
	c := align.NewCollector()
	for _, r := range runs {
		c.AddRun(r.tEnd, r.qEnd0, cells[r.off:r.off+r.n])
	}
	if got := c.Hits(); !align.EqualHits(got, hits) { // also warms the scratch
		b.Fatalf("drain returned %d hits, the search %d, or they differ", len(got), len(hits))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drained = c.Hits()
	}
	b.ReportMetric(float64(len(drained)), "hits")
}

// drained keeps BenchmarkCollectorDrain's result alive.
var drained []align.Hit

// BenchmarkCollectorReplay is the benchmark the collector's tile
// geometry is chosen by: AddRun alone, on a warm table, under the two
// streams that pull the geometry opposite ways. revisit is emission as
// prot-emit does it — every row run of the hit set arrives 13 times
// (the measured emitted/hit ratio) in whole-table passes, the first
// pass carrying the winning scores — and rewards a tile whose rows the
// next pass finds together. isolated is the worst case, and what the
// benchmark's align.addrun_ns_per_cell probe generates: 4096 runs of
// 8–39 cells at pseudo-random (tEnd, qEnd), which share no tile, so
// every row a tile holds beyond the one written is a wasted line.
// Reports ns/cell and the collector's retained bytes per hit (table
// and drain scratch); 0 allocs/op.
func BenchmarkCollectorReplay(b *testing.B) {
	hits, runs, cells := proteinEmitRuns(b)
	lowered := make([]int32, len(cells))
	for i, sc := range cells {
		lowered[i] = sc - 1
	}
	const passes = 13
	revisit := func(c *align.Collector) int {
		for p, from := 0, cells; p < passes; p, from = p+1, lowered {
			for _, r := range runs {
				c.AddRun(r.tEnd, r.qEnd0, from[r.off:r.off+r.n])
			}
		}
		return passes * len(cells)
	}
	n, m := hits[len(hits)-1].TEnd+1, 300
	isolated := func(c *align.Collector) (total int) {
		x := uint64(53)
		for i := 0; i < 4096; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			run := cells[:8+int(x>>59)]
			c.AddRun(int(x>>8)%n, int(x>>40)%m, run)
			total += len(run)
		}
		return total
	}
	for _, stream := range []struct {
		name   string
		replay func(*align.Collector) int
	}{{"revisit", revisit}, {"isolated", isolated}} {
		b.Run(stream.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC() // the second empties the pools' victim caches
			runtime.ReadMemStats(&before)
			c := align.NewCollector()
			perOp := stream.replay(c)
			// The drain also warms the scratch; its result is garbage by the GC below.
			if got := c.Hits(); stream.name == "revisit" && !align.EqualHits(got, hits) {
				b.Fatalf("replay drained %d hits, the search %d, or they differ", len(got), len(hits))
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Reset()
				stream.replay(c)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(perOp), "ns/cell")
			b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(c.Len()), "B/hit")
		})
	}
}

// --- Index persistence: save/load throughput ---

func BenchmarkIndexSaveLoad(b *testing.B) {
	k := wlKey{kind: "dna", n: 500_000, m: 64, queries: 1, seed: 52}
	cw := getWorkload(b, k)
	var buf bytes.Buffer
	if err := cw.ix.Save(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("save", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if err := cw.ix.Save(&w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := alae.Load(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		b.SetBytes(int64(len(cw.wl.Text)))
		for i := 0; i < b.N; i++ {
			alae.NewIndex(cw.wl.Text)
		}
	})
}

// --- Serving store: sharded scatter-gather and the result cache ---

// storeCache shares built stores across sub-benchmark invocations.
var storeCache sync.Map

func getStore(b *testing.B, text []byte, shards, cacheSize int) *alae.Store {
	b.Helper()
	type key struct{ shards, cacheSize int }
	k := key{shards, cacheSize}
	if v, ok := storeCache.Load(k); ok {
		return v.(*alae.Store)
	}
	const chunks = 8
	recs := make([]alae.SeqRecord, 0, chunks)
	for i := 0; i < chunks; i++ {
		lo, hi := i*len(text)/chunks, (i+1)*len(text)/chunks
		recs = append(recs, alae.SeqRecord{Name: itoa(i), Seq: text[lo:hi]})
	}
	st, err := alae.NewStore(recs, alae.StoreOptions{Shards: shards, QueryCacheSize: cacheSize})
	if err != nil {
		b.Fatal(err)
	}
	storeCache.Store(k, st)
	return st
}

// BenchmarkStoreSearch serves the Table 2 workload (8 named chunks)
// through stores scattering over 1, 2 and 4 lanes of the shared index
// with the result cache disabled — the scatter-gather cost — plus the
// cache-hot exact-repeat point. Both metrics must be identical across
// lane counts (the shared-index scatter is exact — see DESIGN.md);
// TestStoreShardParity and the k-scaling smoke gate them, here they are
// reported.
func BenchmarkStoreSearch(b *testing.B) {
	k := wlKey{kind: "dna", n: 200_000, m: 5_000, queries: 2, seed: 42}
	cw := getWorkload(b, k)
	opts := alae.SearchOptions{Algorithm: alae.ALAE, Parallelism: 1}
	for _, shards := range []int{1, 2, 4} {
		b.Run("k="+itoa(shards), func(b *testing.B) {
			st := getStore(b, cw.wl.Text, shards, -1)
			run := func() (entries int64, hits int) {
				results, err := st.SearchAll(cw.wl.Queries, opts, 1)
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					entries += res.Stats.CalculatedEntries
					hits += len(res.Hits)
				}
				return entries, hits
			}
			run() // warm sessions and lazy structures
			b.ResetTimer()
			var entries int64
			var hits int
			for i := 0; i < b.N; i++ {
				entries, hits = run()
			}
			b.ReportMetric(float64(hits), "hits")
			b.ReportMetric(float64(entries), "entries")
		})
	}
	b.Run("cache-hot", func(b *testing.B) {
		st := getStore(b, cw.wl.Text, 4, 0)
		query := cw.wl.Queries[0]
		if _, err := st.Search(query, opts); err != nil { // populate the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var res *alae.StoreResult
		for i := 0; i < b.N; i++ {
			var err error
			if res, err = st.Search(query, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(res.Hits)), "hits")
		if res.Stats.QueryCacheHits != 1 {
			b.Fatal("cache-hot point missed the cache")
		}
	})
}
