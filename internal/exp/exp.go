// Package exp is the evaluation harness: it regenerates every table
// and figure of the paper's §7 on synthetic workloads (see DESIGN.md
// for the dataset substitutions) plus the §6 analytic bounds. Each
// experiment prints rows shaped like the paper's artifact so the two
// can be compared side by side.
package exp

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"repro"
	"repro/internal/align"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/domination"
	"repro/internal/seq"
	"repro/internal/strie"
)

// Config scales the workloads. Scale 1.0 is the laptop default
// (texts of a few hundred thousand to a couple of million characters);
// the paper's full sizes (n up to 10⁹) are reachable with large
// scales and patience.
type Config struct {
	Scale      float64 // multiplies every text/query length (default 1)
	Seed       int64   // RNG seed (default 42)
	NumQueries int     // queries per workload point (default 3; paper used 100)
	// Parallelism is passed to every search's SearchOptions: worker
	// goroutines per ALAE search (0 = all cores, 1 = sequential). Work
	// metrics (entries, ratios) are identical either way; only the
	// timing columns move.
	Parallelism int
}

func (c Config) fill() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.NumQueries <= 0 {
		c.NumQueries = 3
	}
	return c
}

func (c Config) scaled(base int) int {
	v := int(float64(base) * c.Scale)
	if v < 64 {
		v = 64
	}
	return v
}

// Workload is one evaluation dataset: a text and homologous queries.
type Workload struct {
	Text     []byte
	Queries  [][]byte
	Alphabet *seq.Alphabet
}

// DNAWorkload builds a repeat-bearing synthetic genome of length n and
// numQ mutated-substring queries of length qlen, standing in for the
// paper's GRCh37 text and MGSCv37 queries.
func DNAWorkload(n, qlen, numQ int, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	text := seq.RandomGenome(seq.DNA, seq.GenomeConfig{
		Length: n, GC: 0.41, RepeatFraction: 0.08, RepeatMutationRate: 0.05,
	}, rng)
	queries := seq.HomologousQueries(seq.DNA, text, numQ, qlen, 100, 2500, seq.MutationConfig{
		SubstitutionRate: 0.05, IndelRate: 0.01,
	}, rng)
	return Workload{Text: text, Queries: queries, Alphabet: seq.DNA}
}

// ProteinWorkload is the UniParc stand-in over Σ=20.
func ProteinWorkload(n, qlen, numQ int, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	text := seq.RandomGenome(seq.Protein, seq.GenomeConfig{
		Length: n, RepeatFraction: 0.05, RepeatMutationRate: 0.05,
	}, rng)
	queries := seq.HomologousQueries(seq.Protein, text, numQ, qlen, 60, 1500, seq.MutationConfig{
		SubstitutionRate: 0.08, IndelRate: 0.01,
	}, rng)
	return Workload{Text: text, Queries: queries, Alphabet: seq.Protein}
}

// ProteinEmissionWorkload builds the emission-heavy protein case the
// emit-path work targets: a repeat-dense text (half the characters are
// lightly diverged copies of earlier segments) in which every query is
// a lightly mutated copy of a text window. Each query therefore aligns
// against many near-copies at once, surviving bands stay wide, and
// band cells fan out over multiple occurrences — collector traffic,
// not rank, is the wall.
func ProteinEmissionWorkload(n, qlen, numQ int, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	text := seq.RandomGenome(seq.Protein, seq.GenomeConfig{
		Length: n, RepeatFraction: 0.5, RepeatMutationRate: 0.02,
		RepeatMinLen: 400, RepeatMaxLen: 1600,
	}, rng)
	queries := make([][]byte, numQ)
	for i := range queries {
		// Draw from the back half, where most windows are repeat copies.
		src := len(text)/2 + rng.Intn(len(text)/2-qlen)
		queries[i] = seq.Mutate(seq.Protein, text[src:src+qlen], seq.MutationConfig{
			SubstitutionRate: 0.03, IndelRate: 0.005,
		}, rng)
	}
	return Workload{Text: text, Queries: queries, Alphabet: seq.Protein}
}

// Measurement is one (algorithm, workload) cell of a table.
type Measurement struct {
	Algorithm alae.Algorithm
	AvgTime   time.Duration // per query
	Hits      int           // total result count C across queries
	Stats     alae.Stats    // accumulated
	Threshold int
	Err       error
}

// Measure runs every query of the workload through one algorithm.
func Measure(ix *alae.Index, w Workload, opts alae.SearchOptions) Measurement {
	m := Measurement{Algorithm: opts.Algorithm}
	var total time.Duration
	for _, q := range w.Queries {
		start := time.Now()
		res, err := ix.Search(q, opts)
		if err != nil {
			m.Err = err
			return m
		}
		total += time.Since(start)
		m.Hits += len(res.Hits)
		m.Threshold = res.Threshold
		m.Stats.CalculatedEntries += res.Stats.CalculatedEntries
		m.Stats.ComputationCost += res.Stats.ComputationCost
		m.Stats.NodesVisited += res.Stats.NodesVisited
		m.Stats.ForksStarted += res.Stats.ForksStarted
		m.Stats.ForksDominated += res.Stats.ForksDominated
		m.Stats.Seeds += res.Stats.Seeds
		m.Stats.EmittedHits += res.Stats.EmittedHits
		m.Stats.SuppressedEmissions += res.Stats.SuppressedEmissions
	}
	if len(w.Queries) > 0 {
		m.AvgTime = total / time.Duration(len(w.Queries))
	}
	return m
}

// hybridEngine builds the hybrid engine (Algorithm 3, cross-fork score
// reuse) over text: the reproduction reference behind the reuse columns
// of Table 5 and Figures 7 and 10. It is not served.
func hybridEngine(text []byte) *core.Engine {
	return core.NewFromTrie(strie.New(text), core.Options{Mode: core.ModeHybrid})
}

// measureHybrid runs every query of the workload through e, a
// hybridEngine over w.Text. Each query searches at the threshold ix
// resolves for it under opts, with opts.Scheme, which must be set. It
// returns the summed work counters and each query's hits.
func measureHybrid(e *core.Engine, ix *alae.Index, w Workload, opts alae.SearchOptions) (core.Stats, [][]align.Hit, error) {
	ses := e.AcquireSession()
	defer ses.Release()
	c := ses.Collector()
	var st core.Stats
	hits := make([][]align.Hit, len(w.Queries))
	for i, q := range w.Queries {
		h, err := ix.ResolveThreshold(len(q), opts)
		if err != nil {
			return core.Stats{}, nil, err
		}
		c.Reset()
		one, err := ses.SearchContext(context.Background(), q, opts.Scheme, h, c, opts.Parallelism)
		if err != nil {
			return core.Stats{}, nil, err
		}
		st.Add(one)
		hits[i] = c.Hits()
	}
	return st, hits, nil
}

// FilteringRatio is Equation 5: the share of BWT-SW's calculated
// entries that ALAE never touches.
func FilteringRatio(alaeEntries, bwtswEntries int64) float64 {
	if bwtswEntries <= 0 {
		return 0
	}
	f := float64(bwtswEntries-alaeEntries) / float64(bwtswEntries)
	if f < 0 {
		return 0
	}
	return f
}

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}

// Experiments enumerates every runnable experiment by id.
var Experiments = []struct {
	ID   string
	Desc string
	Run  func(w io.Writer, cfg Config) error
}{
	{"table2", "Table 2: time & results vs query length m", Table2},
	{"table3", "Table 3: time & results vs text length n", Table3},
	{"table4", "Table 4: calculated entries × cost, ALAE vs BWT-SW", Table4},
	{"table5", "Table 5: reused/accessed/calculated entries per scheme", Table5},
	{"fig7", "Figure 7: filtering & reusing ratios vs m and n", Fig7},
	{"fig8", "Figure 8: time vs E-value", Fig8},
	{"fig9", "Figure 9: time vs scoring scheme, 3 algorithms", Fig9},
	{"fig10", "Figure 10: filtering & reusing ratios per scheme", Fig10},
	{"fig11", "Figure 11: index sizes (BWT + dominate), DNA & protein", Fig11},
	{"bounds", "§6: closed-form entry bounds over the BLAST grid", Bounds},
	{"growth", "§6 empirical check: measured entries vs the analytic bound", Growth},
}

// Run executes one experiment by id.
func Run(id string, w io.Writer, cfg Config) error {
	for _, e := range Experiments {
		if e.ID == id {
			return e.Run(w, cfg)
		}
	}
	return fmt.Errorf("exp: unknown experiment %q", id)
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer, cfg Config) error {
	for _, e := range Experiments {
		fmt.Fprintf(w, "==== %s — %s ====\n", e.ID, e.Desc)
		if err := e.Run(w, cfg); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// exactAlgorithms are the three compared engines of Tables 2-3.
var tableAlgorithms = []alae.Algorithm{alae.ALAE, alae.BLAST, alae.BWTSW}

// Table2 varies the query length at fixed text length (paper: n = 1
// billion, m from 1 thousand to 10 million; here scaled down but the
// ordering ALAE < BLAST < BWT-SW in time, and ALAE = BWT-SW > BLAST
// in result counts, is the artifact being reproduced).
func Table2(w io.Writer, cfg Config) error {
	cfg = cfg.fill()
	n := cfg.scaled(1_000_000)
	ms := []int{cfg.scaled(1_000), cfg.scaled(5_000), cfg.scaled(20_000)}
	wl0 := DNAWorkload(n, 1, 1, cfg.Seed) // text only; queries per m below
	ix := alae.NewIndex(wl0.Text)
	tw := newTab(w)
	fmt.Fprintf(tw, "n=%d, scheme %v, E=10\t", n, alae.DefaultDNAScheme)
	for _, m := range ms {
		fmt.Fprintf(tw, "m=%d\t\t", m)
	}
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "Approach\t")
	for range ms {
		fmt.Fprint(tw, "Time\tC\t")
	}
	fmt.Fprintln(tw)
	for _, alg := range tableAlgorithms {
		fmt.Fprintf(tw, "%v\t", alg)
		for mi, m := range ms {
			wl := Workload{Text: wl0.Text, Alphabet: seq.DNA}
			rng := rand.New(rand.NewSource(cfg.Seed + int64(mi) + 1))
			wl.Queries = seq.HomologousQueries(seq.DNA, wl0.Text, cfg.NumQueries, m, 0, 0,
				seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.01}, rng)
			meas := Measure(ix, wl, alae.SearchOptions{Parallelism: cfg.Parallelism, Algorithm: alg})
			if meas.Err != nil {
				return meas.Err
			}
			fmt.Fprintf(tw, "%s\t%d\t", fmtDur(meas.AvgTime), meas.Hits)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Table3 varies the text length at fixed query length (paper: m = 1
// million, n from 50 million to 1 billion).
func Table3(w io.Writer, cfg Config) error {
	cfg = cfg.fill()
	m := cfg.scaled(10_000)
	ns := []int{cfg.scaled(250_000), cfg.scaled(500_000), cfg.scaled(1_000_000)}
	tw := newTab(w)
	fmt.Fprintf(tw, "m=%d, scheme %v, E=10\t", m, alae.DefaultDNAScheme)
	for _, n := range ns {
		fmt.Fprintf(tw, "n=%d\t\t", n)
	}
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "Approach\t")
	for range ns {
		fmt.Fprint(tw, "Time\tC\t")
	}
	fmt.Fprintln(tw)

	type cell struct {
		meas Measurement
	}
	cells := make(map[alae.Algorithm][]cell)
	for _, n := range ns {
		wl := DNAWorkload(n, m, cfg.NumQueries, cfg.Seed)
		ix := alae.NewIndex(wl.Text)
		for _, alg := range tableAlgorithms {
			meas := Measure(ix, wl, alae.SearchOptions{Parallelism: cfg.Parallelism, Algorithm: alg})
			if meas.Err != nil {
				return meas.Err
			}
			cells[alg] = append(cells[alg], cell{meas})
		}
	}
	for _, alg := range tableAlgorithms {
		fmt.Fprintf(tw, "%v\t", alg)
		for _, c := range cells[alg] {
			fmt.Fprintf(tw, "%s\t%d\t", fmtDur(c.meas.AvgTime), c.meas.Hits)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Table4 compares calculated entries and their weighted computation
// cost between ALAE (cost classes 1/2/3) and BWT-SW (all cost 3).
func Table4(w io.Writer, cfg Config) error {
	cfg = cfg.fill()
	n := cfg.scaled(1_000_000)
	ms := []int{cfg.scaled(1_000), cfg.scaled(10_000)}
	tw := newTab(w)
	fmt.Fprintf(tw, "n=%d, scheme %v, E=10\n", n, alae.DefaultDNAScheme)
	fmt.Fprint(tw, "m\tALAE entries\tALAE cost\tBWT-SW entries\tBWT-SW cost\tratio\n")
	for mi, m := range ms {
		wl := DNAWorkload(n, m, cfg.NumQueries, cfg.Seed+int64(mi))
		ix := alae.NewIndex(wl.Text)
		a := Measure(ix, wl, alae.SearchOptions{Parallelism: cfg.Parallelism, Algorithm: alae.ALAE})
		b := Measure(ix, wl, alae.SearchOptions{Parallelism: cfg.Parallelism, Algorithm: alae.BWTSW})
		if a.Err != nil {
			return a.Err
		}
		if b.Err != nil {
			return b.Err
		}
		ratio := float64(b.Stats.ComputationCost) / float64(max(a.Stats.ComputationCost, 1))
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%.1fx\n",
			m, a.Stats.CalculatedEntries, a.Stats.ComputationCost,
			b.Stats.CalculatedEntries, b.Stats.ComputationCost, ratio)
	}
	return tw.Flush()
}

// Table5 reports the reuse accounting for the two extreme schemes of
// the paper's Table 5 (hybrid engine).
func Table5(w io.Writer, cfg Config) error {
	cfg = cfg.fill()
	n := cfg.scaled(200_000)
	m := cfg.scaled(10_000)
	schemes := []align.Scheme{
		{Match: 1, Mismatch: -1, GapOpen: -5, GapExtend: -2},
		{Match: 1, Mismatch: -3, GapOpen: -2, GapExtend: -2},
		align.DefaultDNA,
	}
	wl := DNAWorkload(n, m, cfg.NumQueries, cfg.Seed)
	ix := alae.NewIndex(wl.Text)
	hyb := hybridEngine(wl.Text)
	tw := newTab(w)
	fmt.Fprintf(tw, "n=%d, m=%d, E=10 (hybrid engine)\n", n, m)
	fmt.Fprint(tw, "Scheme\tReused\tAccessed\tCalculated\tReusing ratio\n")
	for _, s := range schemes {
		st, _, err := measureHybrid(hyb, ix, wl, alae.SearchOptions{Parallelism: cfg.Parallelism, Scheme: s})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%v\t%d\t%d\t%d\t%.1f%%\n",
			s, st.ReusedEntries, st.AccessedEntries(), st.CalculatedEntries(), 100*st.ReusingRatio())
	}
	return tw.Flush()
}

// Fig7 sweeps the filtering ratio (Equation 5) and reusing ratio
// (Equation 6) over query length and text length.
func Fig7(w io.Writer, cfg Config) error {
	cfg = cfg.fill()
	tw := newTab(w)
	fmt.Fprintf(tw, "(a,b) ratios vs m at n=%d; (c,d) ratios vs n at m=%d\n",
		cfg.scaled(500_000), cfg.scaled(5_000))
	fmt.Fprint(tw, "sweep\tpoint\tfiltering\treusing\n")
	nFixed := cfg.scaled(500_000)
	for mi, m := range []int{cfg.scaled(1_000), cfg.scaled(5_000), cfg.scaled(20_000)} {
		wl := DNAWorkload(nFixed, m, cfg.NumQueries, cfg.Seed+int64(mi))
		ix := alae.NewIndex(wl.Text)
		f, r, err := ratios(ix, wl, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "m\t%d\t%.1f%%\t%.1f%%\n", m, 100*f, 100*r)
	}
	mFixed := cfg.scaled(5_000)
	for ni, n := range []int{cfg.scaled(200_000), cfg.scaled(500_000), cfg.scaled(1_000_000)} {
		wl := DNAWorkload(n, mFixed, cfg.NumQueries, cfg.Seed+10+int64(ni))
		ix := alae.NewIndex(wl.Text)
		f, r, err := ratios(ix, wl, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "n\t%d\t%.1f%%\t%.1f%%\n", n, 100*f, 100*r)
	}
	return tw.Flush()
}

// ratios measures the filtering ratio (ALAE-DFS vs BWT-SW) and the
// reusing ratio (hybrid engine) for one workload.
func ratios(ix *alae.Index, wl Workload, cfg Config) (filtering, reusing float64, err error) {
	a := Measure(ix, wl, alae.SearchOptions{Parallelism: cfg.Parallelism, Algorithm: alae.ALAE})
	if a.Err != nil {
		return 0, 0, a.Err
	}
	b := Measure(ix, wl, alae.SearchOptions{Parallelism: cfg.Parallelism, Algorithm: alae.BWTSW})
	if b.Err != nil {
		return 0, 0, b.Err
	}
	hyb, _, err := measureHybrid(hybridEngine(wl.Text), ix, wl, alae.SearchOptions{Parallelism: cfg.Parallelism, Scheme: align.DefaultDNA})
	if err != nil {
		return 0, 0, err
	}
	return FilteringRatio(a.Stats.CalculatedEntries, b.Stats.CalculatedEntries), hyb.ReusingRatio(), nil
}

// Fig8 varies the E-value; the paper's observation is that ALAE is
// barely sensitive to it.
func Fig8(w io.Writer, cfg Config) error {
	cfg = cfg.fill()
	n := cfg.scaled(500_000)
	tw := newTab(w)
	fmt.Fprintf(tw, "n=%d, scheme %v\n", n, alae.DefaultDNAScheme)
	fmt.Fprint(tw, "m\tE=1e-15\tE=1e-5\tE=10\n")
	for mi, m := range []int{cfg.scaled(1_000), cfg.scaled(10_000)} {
		wl := DNAWorkload(n, m, cfg.NumQueries, cfg.Seed+int64(mi))
		ix := alae.NewIndex(wl.Text)
		fmt.Fprintf(tw, "%d\t", m)
		for _, ev := range []float64{1e-15, 1e-5, 10} {
			meas := Measure(ix, wl, alae.SearchOptions{Parallelism: cfg.Parallelism, Algorithm: alae.ALAE, EValue: ev})
			if meas.Err != nil {
				return meas.Err
			}
			fmt.Fprintf(tw, "%s\t", fmtDur(meas.AvgTime))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Fig9 compares the three algorithms across the four representative
// scoring schemes; BWT-SW is skipped on ⟨1,−1,−5,−2⟩ (its |sb| ≥
// 3|sa| restriction), exactly as in the paper.
func Fig9(w io.Writer, cfg Config) error {
	cfg = cfg.fill()
	n := cfg.scaled(200_000)
	m := cfg.scaled(5_000)
	wl := DNAWorkload(n, m, cfg.NumQueries, cfg.Seed)
	ix := alae.NewIndex(wl.Text)
	tw := newTab(w)
	fmt.Fprintf(tw, "n=%d, m=%d, E=10\n", n, m)
	fmt.Fprint(tw, "Scheme\tALAE\tBLAST\tBWT-SW\n")
	for _, s := range align.Fig9Schemes {
		fmt.Fprintf(tw, "%v\t", s)
		for _, alg := range []alae.Algorithm{alae.ALAE, alae.BLAST, alae.BWTSW} {
			if alg == alae.BWTSW && !s.BWTSWCompatible() {
				fmt.Fprint(tw, "n/a\t")
				continue
			}
			meas := Measure(ix, wl, alae.SearchOptions{Parallelism: cfg.Parallelism, Algorithm: alg, Scheme: s})
			if meas.Err != nil {
				return meas.Err
			}
			fmt.Fprintf(tw, "%s\t", fmtDur(meas.AvgTime))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Fig10 reports the filtering and reusing ratios per scheme.
func Fig10(w io.Writer, cfg Config) error {
	cfg = cfg.fill()
	n := cfg.scaled(200_000)
	m := cfg.scaled(5_000)
	wl := DNAWorkload(n, m, cfg.NumQueries, cfg.Seed)
	ix := alae.NewIndex(wl.Text)
	hyb := hybridEngine(wl.Text)
	tw := newTab(w)
	fmt.Fprintf(tw, "n=%d, m=%d, E=10\n", n, m)
	fmt.Fprint(tw, "Scheme\tfiltering\treusing\n")
	for _, s := range align.Fig9Schemes {
		st, _, err := measureHybrid(hyb, ix, wl, alae.SearchOptions{Parallelism: cfg.Parallelism, Scheme: s})
		if err != nil {
			return err
		}
		if !s.BWTSWCompatible() {
			// The filtering ratio needs the BWT-SW entry count; the
			// paper measures it against its own BWT-SW runs, which are
			// unavailable for this scheme — report reuse only.
			fmt.Fprintf(tw, "%v\tn/a\t%.1f%%\n", s, 100*st.ReusingRatio())
			continue
		}
		a := Measure(ix, wl, alae.SearchOptions{Parallelism: cfg.Parallelism, Algorithm: alae.ALAE, Scheme: s})
		b := Measure(ix, wl, alae.SearchOptions{Parallelism: cfg.Parallelism, Algorithm: alae.BWTSW, Scheme: s})
		for _, meas := range []Measurement{a, b} {
			if meas.Err != nil {
				return meas.Err
			}
		}
		f := FilteringRatio(a.Stats.CalculatedEntries, b.Stats.CalculatedEntries)
		fmt.Fprintf(tw, "%v\t%.1f%%\t%.1f%%\n", s, 100*f, 100*st.ReusingRatio())
	}
	return tw.Flush()
}

// Fig11 reports index sizes: the BWT index and the dominate index,
// for DNA and protein texts of growing length. The dominate index is
// the paper's offline table (DominationTableBytes); a search keeps none.
func Fig11(w io.Writer, cfg Config) error {
	cfg = cfg.fill()
	tw := newTab(w)
	fmt.Fprint(tw, "kind\tn\tBWT index\tBWT packed\tdominate index (paper's offline table)\n")
	for ni, n := range []int{cfg.scaled(250_000), cfg.scaled(500_000), cfg.scaled(1_000_000)} {
		wl := DNAWorkload(n, 64, 1, cfg.Seed+int64(ni))
		ix := alae.NewIndex(wl.Text)
		ds, err := DominationTableBytes(wl, alae.DefaultDNAScheme)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "DNA\t%d\t%d\t%d\t%d\n", n, ix.SizeBytes(), ix.PackedSizeBytes(), ds)
	}
	for ni, n := range []int{cfg.scaled(100_000), cfg.scaled(200_000), cfg.scaled(400_000)} {
		wl := ProteinWorkload(n, 64, 1, cfg.Seed+20+int64(ni))
		ix := alae.NewIndex(wl.Text)
		ds, err := DominationTableBytes(wl, alae.DefaultProteinScheme)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "protein\t%d\t%d\t%d\t%d\n", n, ix.SizeBytes(), ix.PackedSizeBytes(), ds)
	}
	return tw.Flush()
}

// DominationTableBytes builds the paper's offline q-prefix domination
// table (§3.2.2) for scheme s over the workload's text and returns its
// size, Figure 11's "dominate index". The engine answers Lemma 1 from
// the FM-index instead, so this sizes the paper's structure, not one a
// search holds.
func DominationTableBytes(wl Workload, s alae.Scheme) (int, error) {
	tab, err := domination.Build(wl.Text, s.Q(), wl.Alphabet.Letters())
	if err != nil {
		return 0, err
	}
	return tab.SizeBytes(), nil
}

// Bounds prints the §6 closed-form bounds: the default scheme, the
// extremes over the BLAST grid for DNA and protein, and the BWT-SW
// comparison constant.
func Bounds(w io.Writer, _ Config) error {
	tw := newTab(w)
	b, err := analysis.Compute(align.DefaultDNA, 4)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "default DNA scheme\t%v\n", b)
	fmt.Fprintf(tw, "BWT-SW (Lam et al.)\t%.0f·mn^%.3f\n",
		analysis.BWTSWBound.Coefficient, analysis.BWTSWBound.Exponent)
	for _, sigma := range []int{4, 20} {
		lo, hi := analysis.Range(sigma)
		kind := "DNA"
		if sigma == 20 {
			kind = "protein"
		}
		fmt.Fprintf(tw, "%s best\t%v\n", kind, lo)
		fmt.Fprintf(tw, "%s worst\t%v\n", kind, hi)
	}
	return tw.Flush()
}

// Growth empirically validates the §6 analysis: on random (homology-
// free) DNA, ALAE's calculated entries must stay below the analytic
// upper bound coefficient·m·n^exponent at every text length, and the
// measured growth with n must be clearly sublinear. This check is
// stronger than anything the paper prints: it ties the implementation
// counters to the theory.
func Growth(w io.Writer, cfg Config) error {
	cfg = cfg.fill()
	bound, err := analysis.Compute(align.DefaultDNA, 4)
	if err != nil {
		return err
	}
	m := cfg.scaled(2_000)
	tw := newTab(w)
	fmt.Fprintf(tw, "random DNA, random queries, m=%d, scheme %v, E=10\n", m, align.DefaultDNA)
	fmt.Fprintf(tw, "bound: %v\n", bound)
	fmt.Fprint(tw, "n\tmeasured entries\tanalytic bound\tratio\n")
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, n := range []int{cfg.scaled(100_000), cfg.scaled(200_000), cfg.scaled(400_000)} {
		text := seq.RandomSeq(seq.DNA, n, nil, rng)
		queries := make([][]byte, cfg.NumQueries)
		for i := range queries {
			queries[i] = seq.RandomSeq(seq.DNA, m, nil, rng)
		}
		ix := alae.NewIndex(text)
		wl := Workload{Text: text, Queries: queries, Alphabet: seq.DNA}
		meas := Measure(ix, wl, alae.SearchOptions{Parallelism: cfg.Parallelism, Algorithm: alae.ALAE})
		if meas.Err != nil {
			return meas.Err
		}
		perQuery := float64(meas.Stats.CalculatedEntries) / float64(len(queries))
		analytic := bound.Entries(m, n)
		fmt.Fprintf(tw, "%d\t%.0f\t%.0f\t%.3f\n", n, perQuery, analytic, perQuery/analytic)
	}
	return tw.Flush()
}
