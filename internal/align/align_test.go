package align

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestSchemeValidate(t *testing.T) {
	if err := DefaultDNA.Validate(); err != nil {
		t.Errorf("default scheme invalid: %v", err)
	}
	bad := []Scheme{
		{0, -3, -5, -2},
		{1, 3, -5, -2},
		{1, -3, 5, -2},
		{1, -3, -5, 0},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("scheme %v should be invalid", s)
		}
	}
}

func TestSchemeQ(t *testing.T) {
	// §3.1.3: q = ⌊min(|sb|, |sg+ss|)/sa⌋ + 1; for ⟨1,−3,−5,−2⟩, q = 4.
	cases := []struct {
		s Scheme
		q int
	}{
		{Scheme{1, -3, -5, -2}, 4},
		{Scheme{1, -4, -5, -2}, 5},
		{Scheme{1, -1, -5, -2}, 2},
		{Scheme{1, -3, -2, -2}, 4}, // min(3, 4)/1 + 1
		{Scheme{2, -3, -5, -2}, 2}, // min(3, 7)/2 + 1
		{Scheme{4, -5, -5, -2}, 2}, // min(5, 7)/4 + 1
	}
	for _, tc := range cases {
		if got := tc.s.Q(); got != tc.q {
			t.Errorf("Q(%v) = %d, want %d", tc.s, got, tc.q)
		}
	}
}

func TestSchemeLmax(t *testing.T) {
	// §3.1.1 example: T=CTAGCTAG, P=GCTAC (m=5), H=3, scheme
	// ⟨1,−3,−5,−2⟩: substring lengths range from ⌈H/sa⌉=3 to 4.
	s := DefaultDNA
	if got := s.Lmax(5, 3); got != max(5, 5+floorDiv(3-(5+-5), -2)) {
		t.Fatalf("Lmax formula drifted: %d", got)
	}
	// H−(sa·m+sg) = 3−(5−5) = 3; ⌊3/−2⌋ = −2; Lmax = max(5, 3) ... the
	// theorem's bound: m + ⌊(H−(sa·m+sg))/ss⌋ = 5 − 2 = 3, so Lmax =
	// max(m, 3) = 5 by the formula; the example's tighter bound of 4
	// comes from the i ≤ h ≤ m branch combined with score filtering.
	if got := s.Lmax(5, 3); got != 5 {
		t.Errorf("Lmax(5,3) = %d, want 5", got)
	}
	if got := s.MinRow(3); got != 3 {
		t.Errorf("MinRow(3) = %d, want 3", got)
	}
	// Thresholds above the all-match query score shrink nothing but
	// must not go below m when gaps could pay off.
	if got := s.Lmax(100, 20); got < 100 {
		t.Errorf("Lmax(100,20) = %d, below m", got)
	}
}

func TestSchemeMinThreshold(t *testing.T) {
	if got := DefaultDNA.MinThreshold(); got != 4 {
		t.Errorf("MinThreshold = %d, want 4 (q−1 matches score 3, +1)", got)
	}
}

func TestSchemeBWTSWCompatible(t *testing.T) {
	if !DefaultDNA.BWTSWCompatible() {
		t.Error("⟨1,−3,−5,−2⟩ must be BWT-SW compatible")
	}
	if (Scheme{1, -1, -5, -2}).BWTSWCompatible() {
		t.Error("⟨1,−1,−5,−2⟩ must violate |sb| ≥ 3|sa| (§2.4, Fig 9)")
	}
}

func TestSchemeString(t *testing.T) {
	if got := DefaultDNA.String(); got != "<1,-3,-5,-2>" {
		t.Errorf("String = %q", got)
	}
}

func TestSimPaperIntroExample(t *testing.T) {
	// §2.1: S1 = AAACG, S2 = AACCG; the optimal alignment replaces the
	// third character, sim = 4·1 + (−3) = 1... as a global alignment.
	// As a *local* alignment the best is the exact prefix AA plus the
	// suffix CG: substring scores reach 2 (e.g. "AA" vs "AA").
	// The intro's value is checked with the X-matrix, which pins both
	// full strings.
	m, _, _ := XMatrix([]byte("AAACG"), []byte("AACCG"), DefaultDNA)
	// Global-ish score of the full strings: best alignment consuming
	// all of S1 and ending at S2's last column.
	if m[5][5] != 1 {
		t.Errorf("sim(AAACG, AACCG) via XMatrix = %d, want 1", m[5][5])
	}
}

func TestXMatrixFig1(t *testing.T) {
	// Figure 1: X = GCTA aligned against P = GCTAG under ⟨1,−3,−5,−2⟩.
	x, p := []byte("GCTA"), []byte("GCTAG")
	m, ga, gb := XMatrix(x, p, DefaultDNA)

	// Boundary conditions.
	for j := 0; j <= 5; j++ {
		if m[0][j] != 0 {
			t.Errorf("M(0,%d) = %d, want 0", j, m[0][j])
		}
	}
	for i := 1; i <= 4; i++ {
		want := -5 - 2*i
		if m[i][0] != want {
			t.Errorf("M(%d,0) = %d, want %d", i, m[i][0], want)
		}
	}

	// The bold diagonal of the worked example.
	diag := []struct{ i, j, want int }{
		{1, 1, 1}, {2, 2, 2}, {3, 3, 3}, {4, 4, 4},
		{1, 5, 1},  // the figure's (1,5) entry
		{3, 2, -5}, // used by the MX(4,3) derivation
		{4, 3, -4}, // the derived value
	}
	for _, tc := range diag {
		if m[tc.i][tc.j] != tc.want {
			t.Errorf("M(%d,%d) = %d, want %d", tc.i, tc.j, m[tc.i][tc.j], tc.want)
		}
	}
	// The worked auxiliary values: Ga(4,3) = −4, Gb(4,3) = −14.
	if ga[4][3] != -4 {
		t.Errorf("Ga(4,3) = %d, want -4", ga[4][3])
	}
	if gb[4][3] != -14 {
		t.Errorf("Gb(4,3) = %d, want -14", gb[4][3])
	}
}

// rescore recomputes an alignment's score from its operations.
func rescore(a Alignment, s Scheme) int {
	score := 0
	run := Op(0)
	for _, op := range a.Ops {
		switch op {
		case OpMatch:
			score += s.Match
		case OpMismatch:
			score += s.Mismatch
		case OpDelete, OpInsert:
			if run == op {
				score += s.GapExtend
			} else {
				score += s.GapOpen + s.GapExtend
			}
		}
		run = op
	}
	return score
}

func randDNA(n int, rng *rand.Rand) []byte {
	letters := []byte("ACGT")
	out := make([]byte, n)
	for i := range out {
		out[i] = letters[rng.Intn(4)]
	}
	return out
}

func TestLocalAllMatchesLocalMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 60; trial++ {
		text := randDNA(5+rng.Intn(60), rng)
		query := randDNA(5+rng.Intn(60), rng)
		h := 4 + rng.Intn(6)
		s := DefaultDNA
		want := NewCollector()
		hm, _, _ := LocalMatrix(text, query, s)
		for i := 1; i <= len(text); i++ {
			for j := 1; j <= len(query); j++ {
				if hm[i][j] >= h {
					want.Add(i-1, j-1, hm[i][j])
				}
			}
		}
		got := LocalAll(text, query, s, h)
		if !EqualHits(got, want.Hits()) {
			t.Fatalf("trial %d: LocalAll disagrees with LocalMatrix\n got %v\nwant %v",
				trial, got, want.Hits())
		}
	}
}

func TestLocalAllMatchesBasic(t *testing.T) {
	// Two independent oracles must agree: the rolling Gotoh sweep and
	// the literal Algorithm 1 over X-matrices.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		text := randDNA(4+rng.Intn(25), rng)
		query := randDNA(4+rng.Intn(25), rng)
		h := 4 + rng.Intn(4)
		got := LocalAll(text, query, DefaultDNA, h)
		want := BasicHits(text, query, DefaultDNA, h)
		if !EqualHits(got, want) {
			t.Fatalf("trial %d (T=%q P=%q H=%d):\n gotoh %v\n basic %v",
				trial, text, query, h, got, want)
		}
	}
}

func TestLocalAllEmptyInputs(t *testing.T) {
	if got := LocalAll(nil, []byte("ACGT"), DefaultDNA, 1); len(got) != 0 {
		t.Errorf("empty text gave hits: %v", got)
	}
	if got := LocalAll([]byte("ACGT"), nil, DefaultDNA, 1); len(got) != 0 {
		t.Errorf("empty query gave hits: %v", got)
	}
}

func TestLocalAllExactSubstring(t *testing.T) {
	// Planting an exact copy of the query must produce a hit with
	// score m·sa at the right coordinates.
	rng := rand.New(rand.NewSource(42))
	text := randDNA(300, rng)
	query := text[100:130]
	hits := LocalAll(text, query, DefaultDNA, 30)
	found := false
	for _, h := range hits {
		if h.TEnd == 129 && h.QEnd == 29 && h.Score == 30 {
			found = true
		}
	}
	if !found {
		t.Errorf("planted exact hit missing from %v", hits)
	}
}

func TestBestLocal(t *testing.T) {
	text := []byte("TTTTGCTAGCTTTT")
	query := []byte("AAGCTAGCAA")
	hit, found := BestLocal(text, query, DefaultDNA)
	if !found {
		t.Fatal("no alignment found")
	}
	// The longest common exact stretch is GCTAGC (6 matches); the
	// flanking characters mismatch, so extending never pays.
	if hit.Score != 6 {
		t.Errorf("best score = %d, want 6", hit.Score)
	}
}

func TestTracebackRescores(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := DefaultDNA
	for trial := 0; trial < 40; trial++ {
		text := randDNA(80+rng.Intn(100), rng)
		// Embed a mutated copy so gapped alignments exist.
		start := rng.Intn(len(text) - 40)
		sub := append([]byte(nil), text[start:start+40]...)
		if len(sub) > 10 {
			sub[5] = 'A'
			sub = append(sub[:20], sub[22:]...) // deletion of 2
		}
		query := append(randDNA(10, rng), append(sub, randDNA(10, rng)...)...)
		hits := LocalAll(text, query, s, 12)
		for _, h := range hits {
			a, err := Traceback(text, query, s, h)
			if err != nil {
				t.Fatalf("trial %d: traceback(%+v): %v", trial, h, err)
			}
			if got := rescore(a, s); got != h.Score {
				t.Fatalf("trial %d: alignment rescores to %d, hit says %d\n%s",
					trial, got, h.Score, a.Format(text, query, 0))
			}
			if a.TEnd != h.TEnd || a.QEnd != h.QEnd {
				t.Fatalf("trial %d: end coordinates moved: %+v vs %+v", trial, a, h)
			}
			// Consumed lengths must match the coordinate spans.
			tLen, qLen := 0, 0
			for _, op := range a.Ops {
				if op != OpInsert {
					tLen++
				}
				if op != OpDelete {
					qLen++
				}
			}
			if tLen != a.TEnd-a.TStart+1 || qLen != a.QEnd-a.QStart+1 {
				t.Fatalf("trial %d: op lengths inconsistent with spans: %+v", trial, a)
			}
		}
	}
}

func TestTracebackRejectsBadHit(t *testing.T) {
	if _, err := Traceback([]byte("ACGT"), []byte("ACGT"), DefaultDNA, Hit{TEnd: 9, QEnd: 0}); err == nil {
		t.Error("out-of-range hit accepted")
	}
}

func TestAlignmentFormatAndCIGAR(t *testing.T) {
	text := []byte("GCTAGC")
	query := []byte("GCTTAGC")
	hit, found := BestLocal(text, query, DefaultDNA)
	if !found {
		t.Fatal("no hit")
	}
	a, err := Traceback(text, query, DefaultDNA, hit)
	if err != nil {
		t.Fatal(err)
	}
	out := a.Format(text, query, 40)
	if !strings.Contains(out, "score=") || !strings.Contains(out, "T ") {
		t.Errorf("Format output malformed:\n%s", out)
	}
	if a.CIGAR() == "" {
		t.Error("empty CIGAR")
	}
	if id := a.Identity(); id <= 0 || id > 1 {
		t.Errorf("identity %g out of range", id)
	}
}

func TestCollectorKeepsMax(t *testing.T) {
	c := NewCollector()
	c.Add(5, 7, 10)
	c.Add(5, 7, 8)
	c.Add(5, 7, 12)
	c.Add(6, 7, 3)
	hits := c.Hits()
	if len(hits) != 2 {
		t.Fatalf("got %d hits, want 2", len(hits))
	}
	if hits[0] != (Hit{5, 7, 12}) {
		t.Errorf("hits[0] = %+v, want {5 7 12}", hits[0])
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestEqualHits(t *testing.T) {
	a := []Hit{{1, 2, 3}}
	b := []Hit{{1, 2, 3}}
	if !EqualHits(a, b) {
		t.Error("identical slices not equal")
	}
	if EqualHits(a, nil) {
		t.Error("different lengths equal")
	}
	if EqualHits(a, []Hit{{1, 2, 4}}) {
		t.Error("different scores equal")
	}
}

func BenchmarkLocalAll(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	text := randDNA(10000, rng)
	query := randDNA(1000, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCollector()
		LocalAllInto(text, query, DefaultDNA, 25, c)
	}
}

// TestTracebackFailureBounded gates the traceback's failure path on a
// 5 000-bp hit: a score that no alignment ending at the hit reaches
// (the query carries three mismatches, the hit claims a perfect 5 000)
// fails once the window covers the span that score allows, in O(m²)
// cells, instead of growing the window over the whole text. The
// unbounded loop allocated 1.36 GB here; a correct 5 000-bp hit takes
// the same bounded windows.
func TestTracebackFailureBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	text := randDNA(20000, rng)
	query := append([]byte(nil), text[5000:10000]...)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const bound = 64 << 20
	hit := Hit{TEnd: 9999, QEnd: 4999, Score: 5000}
	if got := allocated(func() {
		a, err := Traceback(text, query, DefaultDNA, hit)
		if err != nil || a.Score != 5000 || a.TStart != 5000 || a.QStart != 0 {
			t.Fatalf("exact 5 000-bp hit: %+v, %v", a, err)
		}
	}); got > bound {
		t.Fatalf("exact 5 000-bp hit allocated %d MB, want ≤ %d", got>>20, bound>>20)
	} else {
		t.Logf("exact 5 000-bp hit: %.1f MB allocated", float64(got)/(1<<20))
	}
	for _, i := range []int{700, 2500, 4200} {
		for query[i] == text[5000+i] {
			query[i] = "ACGT"[rng.Intn(4)]
		}
	}
	if got := allocated(func() {
		if _, err := Traceback(text, query, DefaultDNA, hit); err == nil ||
			!strings.Contains(err.Error(), "no alignment of score 5000") {
			t.Fatalf("a score no alignment reaches: %v", err)
		}
	}); got > bound {
		t.Fatalf("failed 5 000-bp traceback allocated %d MB, want ≤ %d (1 360 MB unbounded)", got>>20, bound>>20)
	} else {
		t.Logf("failed 5 000-bp traceback: %.1f MB allocated", float64(got)/(1<<20))
	}
	// A score above what the hit's query prefix could ever reach fails
	// before any window is computed.
	if got := allocated(func() {
		if _, err := Traceback(text, query, DefaultDNA, Hit{TEnd: 9999, QEnd: 4999, Score: 5001}); err == nil {
			t.Fatal("score 5001 over 5000 query bases accepted")
		}
	}); got > 1<<20 {
		t.Fatalf("an unreachable score allocated %d bytes", got)
	}
}
