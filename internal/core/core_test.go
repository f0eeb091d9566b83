package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/seq"
)

func randDNA(n int, rng *rand.Rand) []byte {
	letters := []byte("ACGT")
	out := make([]byte, n)
	for i := range out {
		out[i] = letters[rng.Intn(4)]
	}
	return out
}

// search runs one query the one way the core offers: on a session
// acquired from e, released afterwards.
func search(e *Engine, query []byte, s align.Scheme, h int, c *align.Collector, workers int) (Stats, error) {
	ses := e.AcquireSession()
	defer ses.Release()
	return ses.SearchContext(context.Background(), query, s, h, c, workers)
}

// runEngine searches with the given options and returns sorted hits.
func runEngine(t *testing.T, text, query []byte, s align.Scheme, h int, opts Options) ([]align.Hit, Stats) {
	t.Helper()
	e := New(text, opts)
	c := align.NewCollector()
	st, err := search(e, query, s, h, c, 1)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	return c.Hits(), st
}

// oracle is the Gotoh sweep.
func oracle(text, query []byte, s align.Scheme, h int) []align.Hit {
	return align.LocalAll(text, query, s, h)
}

func TestDFSMatchesOracleRandomDNA(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	s := align.DefaultDNA
	for trial := 0; trial < 80; trial++ {
		text := randDNA(30+rng.Intn(200), rng)
		query := randDNA(10+rng.Intn(100), rng)
		h := s.MinThreshold() + rng.Intn(10)
		got, _ := runEngine(t, text, query, s, h, Options{})
		want := oracle(text, query, s, h)
		if !align.EqualHits(got, want) {
			t.Fatalf("trial %d (T=%q P=%q H=%d):\n got %v\nwant %v",
				trial, text, query, h, got, want)
		}
	}
}

func TestDFSMatchesOracleHomologous(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	s := align.DefaultDNA
	nonEmpty := 0
	for trial := 0; trial < 40; trial++ {
		text := randDNA(300, rng)
		query := seq.Mutate(seq.DNA, text[50:200],
			seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.02}, rng)
		h := 15
		got, _ := runEngine(t, text, query, s, h, Options{})
		want := oracle(text, query, s, h)
		if !align.EqualHits(got, want) {
			t.Fatalf("trial %d:\n got %v\nwant %v", trial, got, want)
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 20 {
		t.Fatalf("only %d/40 trials had hits; workload too weak", nonEmpty)
	}
}

func TestHybridMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	s := align.DefaultDNA
	for trial := 0; trial < 60; trial++ {
		text := randDNA(30+rng.Intn(200), rng)
		var query []byte
		if trial%2 == 0 {
			query = randDNA(10+rng.Intn(100), rng)
		} else {
			query = seq.Mutate(seq.DNA, text[10:10+rng.Intn(len(text)-20)+5],
				seq.MutationConfig{SubstitutionRate: 0.06, IndelRate: 0.02}, rng)
		}
		h := s.MinThreshold() + rng.Intn(12)
		got, _ := runEngine(t, text, query, s, h, Options{Mode: ModeHybrid})
		want := oracle(text, query, s, h)
		if !align.EqualHits(got, want) {
			t.Fatalf("trial %d (T=%q P=%q H=%d):\n got %v\nwant %v",
				trial, text, query, h, got, want)
		}
	}
}

func TestAllSchemesBothModes(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	schemes := append([]align.Scheme{}, align.Fig9Schemes...)
	schemes = append(schemes,
		align.Scheme{Match: 2, Mismatch: -3, GapOpen: -5, GapExtend: -2},
		align.Scheme{Match: 4, Mismatch: -5, GapOpen: -5, GapExtend: -2}, // FGOE inside EMR
		align.Scheme{Match: 1, Mismatch: -2, GapOpen: -2, GapExtend: -1},
	)
	for _, s := range schemes {
		for _, mode := range []Mode{ModeDFS, ModeHybrid} {
			for trial := 0; trial < 12; trial++ {
				text := randDNA(100+rng.Intn(120), rng)
				query := seq.Mutate(seq.DNA, text[20:90],
					seq.MutationConfig{SubstitutionRate: 0.08, IndelRate: 0.03}, rng)
				h := s.MinThreshold() + rng.Intn(3*s.Match) + 2
				got, _ := runEngine(t, text, query, s, h, Options{Mode: mode})
				want := oracle(text, query, s, h)
				if !align.EqualHits(got, want) {
					t.Fatalf("scheme %v mode %d trial %d (T=%q P=%q H=%d):\n got %v\nwant %v",
						s, mode, trial, text, query, h, got, want)
				}
			}
		}
	}
}

func TestProteinBothModes(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	letters := seq.Protein.Letters()
	randProt := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = letters[rng.Intn(len(letters))]
		}
		return out
	}
	s := align.DefaultProtein
	for _, mode := range []Mode{ModeDFS, ModeHybrid} {
		for trial := 0; trial < 15; trial++ {
			text := randProt(200)
			query := append(randProt(8),
				append(seq.Mutate(seq.Protein, text[50:120],
					seq.MutationConfig{SubstitutionRate: 0.1, IndelRate: 0.02}, rng),
					randProt(8)...)...)
			h := 12
			got, _ := runEngine(t, text, query, s, h, Options{Mode: mode})
			want := oracle(text, query, s, h)
			if !align.EqualHits(got, want) {
				t.Fatalf("mode %d trial %d:\n got %v\nwant %v", mode, trial, got, want)
			}
		}
	}
}

func TestFilterAblationsStayExact(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	s := align.DefaultDNA
	variants := []Options{
		{},
		{DisableLengthFilter: true},
		{DisableScoreFilter: true},
		{DisableDomination: true},
		{DisableLengthFilter: true, DisableScoreFilter: true, DisableDomination: true},
		{Mode: ModeHybrid, DisableScoreFilter: true},
		{Mode: ModeHybrid, DisableDomination: true},
	}
	for vi, opts := range variants {
		for trial := 0; trial < 12; trial++ {
			text := randDNA(150, rng)
			query := seq.Mutate(seq.DNA, text[30:130],
				seq.MutationConfig{SubstitutionRate: 0.06, IndelRate: 0.02}, rng)
			h := 12
			got, _ := runEngine(t, text, query, s, h, opts)
			want := oracle(text, query, s, h)
			if !align.EqualHits(got, want) {
				t.Fatalf("variant %d trial %d:\n got %v\nwant %v", vi, trial, got, want)
			}
		}
	}
}

func TestRepeatRichText(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	unit := randDNA(25, rng)
	var text []byte
	for i := 0; i < 12; i++ {
		text = append(text, unit...)
	}
	query := append(append(randDNA(5, rng), unit...), randDNA(5, rng)...)
	s := align.DefaultDNA
	h := 15
	want := oracle(text, query, s, h)
	if len(want) == 0 {
		t.Fatal("vacuous workload")
	}
	for _, mode := range []Mode{ModeDFS, ModeHybrid} {
		got, _ := runEngine(t, text, query, s, h, Options{Mode: mode})
		if !align.EqualHits(got, want) {
			t.Fatalf("mode %d:\n got %v\nwant %v", mode, got, want)
		}
	}
}

func TestSearchRejectsLowThreshold(t *testing.T) {
	e := New([]byte("ACGTACGT"), Options{})
	c := align.NewCollector()
	if _, err := search(e, []byte("ACGT"), align.DefaultDNA, 2, c, 1); err == nil {
		t.Error("threshold below MinThreshold accepted")
	}
	if _, err := search(e, []byte("ACGT"), align.Scheme{}, 10, c, 1); err == nil {
		t.Error("invalid scheme accepted")
	}
}

func TestSearchEdgeInputs(t *testing.T) {
	s := align.DefaultDNA
	e := New([]byte("ACGTACGT"), Options{})
	c := align.NewCollector()
	// Query shorter than q: diagnosed, not silently empty (qgram.New
	// would emit zero grams and the engines would have nothing to do).
	st, err := search(e, []byte("AC"), s, s.MinThreshold(), c, 1)
	if err == nil || st.ForksConsidered != 0 {
		t.Errorf("short query accepted: st=%+v err=%v", st, err)
	}
	// Empty text.
	e2 := New(nil, Options{})
	if _, err := search(e2, []byte("ACGTACGT"), s, s.MinThreshold(), c, 1); err != nil {
		t.Errorf("empty text: %v", err)
	}
	// Query with letters absent from the text.
	e3 := New([]byte("AAAACCCCAAAA"), Options{})
	st, err = search(e3, []byte("GGGGTTTT"), s, s.MinThreshold(), c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Error("impossible hits emitted")
	}
}

// TestShortQueryDiagnosedBothEngines pins the too-short-query
// contract on both engine modes: a query shorter than the scheme's
// gram length is rejected with a descriptive error — from one-shot
// Search and from a re-armed Session alike — and the session stays
// usable for well-formed queries afterwards.
func TestShortQueryDiagnosedBothEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	text := randDNA(500, rng)
	s := align.DefaultDNA
	q := s.Q()
	short := randDNA(q-1, rng)
	good := randDNA(60, rng)
	for _, mode := range []Mode{ModeDFS, ModeHybrid} {
		e := New(text, Options{Mode: mode})
		c := align.NewCollector()
		if _, err := search(e, short, s, s.MinThreshold(), c, 1); err == nil {
			t.Fatalf("mode %v: short query (m=%d < q=%d) accepted", mode, len(short), q)
		}
		if _, err := search(e, nil, s, s.MinThreshold(), c, 1); err == nil {
			t.Fatalf("mode %v: empty query accepted", mode)
		}
		ses := e.AcquireSession()
		if _, err := ses.SearchContext(context.Background(), short, s, s.MinThreshold(), c, 1); err == nil {
			t.Fatalf("mode %v: session accepted short query", mode)
		}
		// The rejection must not poison the session.
		if _, err := ses.SearchContext(context.Background(), good, s, s.MinThreshold(), c, 1); err != nil {
			t.Fatalf("mode %v: session broken after short-query rejection: %v", mode, err)
		}
		ses.Release()
	}
}

func TestStatsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	text := randDNA(600, rng)
	query := seq.Mutate(seq.DNA, text[100:350],
		seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.01}, rng)
	s := align.DefaultDNA
	h := 20

	_, stDFS := runEngine(t, text, query, s, h, Options{})
	if stDFS.CalculatedEntries() <= 0 || stDFS.ForksStarted <= 0 {
		t.Fatalf("DFS stats empty: %+v", stDFS)
	}
	if stDFS.ComputationCost() < stDFS.CalculatedEntries() {
		t.Error("cost below entry count")
	}
	if stDFS.ReusedEntries != 0 {
		t.Error("DFS mode must not reuse")
	}

	_, stHyb := runEngine(t, text, query, s, h, Options{Mode: ModeHybrid})
	if stHyb.AccessedEntries() != stHyb.CalculatedEntries()+stHyb.ReusedEntries {
		t.Error("accessed != calculated + reused")
	}
	if r := stHyb.ReusingRatio(); r < 0 || r >= 1 {
		t.Errorf("reusing ratio %g out of range", r)
	}

	// Filters must reduce the work.
	_, stNoFilter := runEngine(t, text, query, s, h,
		Options{DisableScoreFilter: true, DisableLengthFilter: true, DisableDomination: true})
	if stNoFilter.CalculatedEntries() < stDFS.CalculatedEntries() {
		t.Errorf("filters increased work: %d (filters on) vs %d (off)",
			stDFS.CalculatedEntries(), stNoFilter.CalculatedEntries())
	}
	if stNoFilter.ForksDominated != 0 {
		t.Error("domination counted while disabled")
	}
}

func TestDominationPrunesForksOnTandemRepeat(t *testing.T) {
	// In a long tandem repeat every occurrence of most grams is
	// preceded by the same character, so domination must fire when
	// the query walks the same repeat.
	rng := rand.New(rand.NewSource(108))
	unit := randDNA(40, rng)
	var text []byte
	for i := 0; i < 8; i++ {
		text = append(text, unit...)
	}
	query := append(append([]byte(nil), unit...), unit...)
	s := align.DefaultDNA
	h := 25
	_, st := runEngine(t, text, query, s, h, Options{})
	if st.ForksDominated == 0 {
		t.Errorf("no forks dominated on a tandem repeat: %+v", st)
	}
	// And exactness must hold regardless.
	got, _ := runEngine(t, text, query, s, h, Options{})
	want := oracle(text, query, s, h)
	if !align.EqualHits(got, want) {
		t.Fatalf("domination broke exactness:\n got %v\nwant %v", got, want)
	}
}

func TestMinThresholdBoundaryExact(t *testing.T) {
	// Exactly at the floor H = (q−1)·sa + 1: q-length pure matches
	// qualify and nothing shorter can; both engines must agree with
	// the oracle.
	rng := rand.New(rand.NewSource(110))
	s := align.DefaultDNA
	h := s.MinThreshold() // 4
	for trial := 0; trial < 20; trial++ {
		text := randDNA(60, rng)
		query := randDNA(30, rng)
		want := oracle(text, query, s, h)
		for _, mode := range []Mode{ModeDFS, ModeHybrid} {
			got, _ := runEngine(t, text, query, s, h, Options{Mode: mode})
			if !align.EqualHits(got, want) {
				t.Fatalf("mode %d trial %d (T=%q P=%q):\n got %v\nwant %v",
					mode, trial, text, query, got, want)
			}
		}
	}
}

func TestCollectionSeparatorsDoNotCrash(t *testing.T) {
	coll := seq.NewCollection([]seq.Record{
		{Header: "a", Seq: []byte("ACGTACGTACGTACGTACGT")},
		{Header: "b", Seq: []byte("TTTTACGTACGTACGTCCCC")},
	})
	s := align.DefaultDNA
	h := 8
	got, _ := runEngine(t, coll.Text(), []byte("ACGTACGTACGT"), s, h, Options{})
	want := oracle(coll.Text(), []byte("ACGTACGTACGT"), s, h)
	if !align.EqualHits(got, want) {
		t.Fatalf("collection text:\n got %v\nwant %v", got, want)
	}
}
