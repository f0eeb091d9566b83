package exp

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro"
	"repro/internal/align"
	"repro/internal/analysis"
	"repro/internal/seq"
)

// tiny is a configuration small enough for unit tests.
var tiny = Config{Scale: 0.02, Seed: 7, NumQueries: 1}

func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	for _, e := range Experiments {
		var buf bytes.Buffer
		if err := e.Run(&buf, tiny); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", e.ID)
		}
	}
}

func TestRunByIDAndUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("bounds", &buf, tiny); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mn^") {
		t.Errorf("bounds output missing the bound form: %q", buf.String())
	}
	if err := Run("nope", &buf, tiny); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunAll(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf, tiny); err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments {
		if !strings.Contains(buf.String(), e.ID) {
			t.Errorf("RunAll output missing section %s", e.ID)
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	wl := DNAWorkload(5000, 300, 4, 1)
	if len(wl.Text) != 5000 || len(wl.Queries) != 4 {
		t.Fatalf("workload shape: n=%d queries=%d", len(wl.Text), len(wl.Queries))
	}
	pw := ProteinWorkload(2000, 100, 2, 1)
	if len(pw.Text) != 2000 || len(pw.Queries) != 2 {
		t.Fatalf("protein workload shape wrong")
	}
}

func TestMeasureAggregates(t *testing.T) {
	wl := DNAWorkload(4000, 300, 3, 2)
	ix := alae.NewIndex(wl.Text)
	m := Measure(ix, wl, alae.SearchOptions{Algorithm: alae.ALAE})
	if m.Err != nil {
		t.Fatal(m.Err)
	}
	if m.Hits == 0 {
		t.Error("homologous workload produced no hits")
	}
	if m.Stats.CalculatedEntries == 0 {
		t.Error("no entries accounted")
	}
	if m.AvgTime <= 0 {
		t.Error("no time measured")
	}
}

func TestMeasurePropagatesErrors(t *testing.T) {
	wl := DNAWorkload(2000, 200, 1, 3)
	ix := alae.NewIndex(wl.Text)
	m := Measure(ix, wl, alae.SearchOptions{
		Algorithm: alae.BWTSW,
		Scheme:    alae.Scheme{Match: 1, Mismatch: -1, GapOpen: -5, GapExtend: -2},
	})
	if m.Err == nil {
		t.Error("BWT-SW on an incompatible scheme must error")
	}
}

func TestFilteringRatio(t *testing.T) {
	if FilteringRatio(25, 100) != 0.75 {
		t.Error("ratio arithmetic wrong")
	}
	if FilteringRatio(100, 0) != 0 {
		t.Error("zero denominator not handled")
	}
	if FilteringRatio(200, 100) != 0 {
		t.Error("negative ratio not clamped")
	}
}

// TestHybridReportsReuse checks the hybrid path of Table 5 and
// Figures 7 and 10 on a query with heavy internal repetition, whose
// duplicated fork suffixes are what the reuse technique exploits: the
// hybrid reference returns ALAE's hit set, accounts accessed entries as
// calculated plus reused, and reuses some.
func TestHybridReportsReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	randDNA := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = "ACGT"[rng.Intn(4)]
		}
		return out
	}
	unit := randDNA(60)
	text := append(append(append([]byte(nil), unit...), randDNA(100)...), unit...)
	var query []byte
	for i := 0; i < 6; i++ {
		query = append(query, unit...)
	}
	wl := Workload{Text: text, Queries: [][]byte{query}, Alphabet: seq.DNA}
	ix := alae.NewIndex(text)
	opts := alae.SearchOptions{Scheme: alae.DefaultDNAScheme, Threshold: 30}
	st, hits, err := measureHybrid(hybridEngine(text), ix, wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ix.Search(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Hits) == 0 || !align.EqualHits(hits[0], want.Hits) {
		t.Fatalf("hybrid returns %d hits, ALAE %d", len(hits[0]), len(want.Hits))
	}
	if st.AccessedEntries() != st.CalculatedEntries()+st.ReusedEntries {
		t.Error("accessed != calculated + reused")
	}
	if st.ReusedEntries == 0 {
		t.Error("no reuse on a query built to repeat its fork suffixes")
	}
}

// TestExactEnginesAgreeOnHarnessWorkload ties the harness back to the
// exactness invariant at a slightly larger scale than the unit tests.
func TestExactEnginesAgreeOnHarnessWorkload(t *testing.T) {
	wl := DNAWorkload(20_000, 1_000, 2, 11)
	ix := alae.NewIndex(wl.Text)
	a := Measure(ix, wl, alae.SearchOptions{Algorithm: alae.ALAE})
	b := Measure(ix, wl, alae.SearchOptions{Algorithm: alae.BWTSW})
	sw := Measure(ix, wl, alae.SearchOptions{Algorithm: alae.SmithWaterman})
	for _, m := range []Measurement{a, b, sw} {
		if m.Err != nil {
			t.Fatal(m.Err)
		}
	}
	if a.Hits != b.Hits || a.Hits != sw.Hits {
		t.Fatalf("hit counts differ: ALAE=%d BWT-SW=%d SW=%d", a.Hits, b.Hits, sw.Hits)
	}
	if a.Hits == 0 {
		t.Fatal("vacuous workload")
	}
	// And the filtering ratio must be positive: ALAE computes less.
	if f := FilteringRatio(a.Stats.CalculatedEntries, b.Stats.CalculatedEntries); f <= 0 {
		t.Errorf("filtering ratio %.3f not positive (ALAE %d vs BWT-SW %d entries)",
			f, a.Stats.CalculatedEntries, b.Stats.CalculatedEntries)
	}
}

// TestMeasuredEntriesRespectAnalyticBound ties the engine's counters
// to the §6 theory: on random inputs the calculated entries must stay
// below coefficient·m·n^exponent.
func TestMeasuredEntriesRespectAnalyticBound(t *testing.T) {
	bound, err := analysis.Compute(align.DefaultDNA, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	m := 1000
	for _, n := range []int{50_000, 150_000} {
		text := seq.RandomSeq(seq.DNA, n, nil, rng)
		queries := [][]byte{
			seq.RandomSeq(seq.DNA, m, nil, rng),
			seq.RandomSeq(seq.DNA, m, nil, rng),
		}
		ix := alae.NewIndex(text)
		meas := Measure(ix, Workload{Text: text, Queries: queries, Alphabet: seq.DNA},
			alae.SearchOptions{Algorithm: alae.ALAE})
		if meas.Err != nil {
			t.Fatal(meas.Err)
		}
		perQuery := float64(meas.Stats.CalculatedEntries) / 2
		analytic := bound.Entries(m, n)
		if perQuery > analytic {
			t.Errorf("n=%d: measured %.0f entries exceed the §6 bound %.0f", n, perQuery, analytic)
		}
	}
}
