package evalue

import (
	"math"
	"testing"

	"repro/internal/align"
)

func uniform(sigma int) []float64 {
	f := make([]float64, sigma)
	for i := range f {
		f[i] = 1 / float64(sigma)
	}
	return f
}

func TestLambdaMatchesBLASTPublishedValues(t *testing.T) {
	// NCBI's published ungapped λ for uniform DNA backgrounds.
	cases := []struct {
		match, mismatch int
		want            float64
	}{
		{1, -3, 1.374},
		{1, -2, 1.332},
		{1, -4, 1.383},
		{2, -3, 0.624},
	}
	for _, tc := range cases {
		s := align.Scheme{Match: tc.match, Mismatch: tc.mismatch, GapOpen: -5, GapExtend: -2}
		got, err := Lambda(s, uniform(4))
		if err != nil {
			t.Fatalf("Lambda(%v): %v", s, err)
		}
		if math.Abs(got-tc.want) > 0.01 {
			t.Errorf("Lambda(%d,%d) = %.4f, want ≈%.3f", tc.match, tc.mismatch, got, tc.want)
		}
	}
}

func TestLambdaSolvesDefiningEquation(t *testing.T) {
	for _, s := range align.Fig9Schemes {
		for _, sigma := range []int{4, 20} {
			l, err := Lambda(s, uniform(sigma))
			if err != nil {
				t.Fatalf("Lambda(%v, σ=%d): %v", s, sigma, err)
			}
			pm := 1 / float64(sigma)
			residual := pm*math.Exp(l*float64(s.Match)) + (1-pm)*math.Exp(l*float64(s.Mismatch)) - 1
			if math.Abs(residual) > 1e-9 {
				t.Errorf("λ=%g for %v σ=%d leaves residual %g", l, s, sigma, residual)
			}
			if l <= 0 {
				t.Errorf("λ=%g must be positive", l)
			}
		}
	}
}

func TestLambdaRejectsNonNegativeExpectation(t *testing.T) {
	// With match 3, mismatch −1 on DNA the expected step score is
	// 3/4·(−1) + 1/4·3 = 0: no positive λ.
	s := align.Scheme{Match: 3, Mismatch: -1, GapOpen: -5, GapExtend: -2}
	if _, err := Lambda(s, uniform(4)); err == nil {
		t.Error("expected error for zero-expectation scheme")
	}
	if _, err := Lambda(align.Scheme{}, uniform(4)); err == nil {
		t.Error("expected error for invalid scheme")
	}
}

func TestEValueThresholdRoundTrip(t *testing.T) {
	p, err := New(align.DefaultDNA, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, n := 10000, 1000000
	for _, e := range []float64{1e-15, 1e-5, 10} {
		h := p.Threshold(m, n, e)
		// At score H the E-value must be at most e; at H−1, above e.
		if got := p.EValue(m, n, h); got > e*1.0001 {
			t.Errorf("E(H=%d) = %g > %g", h, got, e)
		}
		if got := p.EValue(m, n, h-1); got < e {
			t.Errorf("E(H−1=%d) = %g < %g: threshold not tight", h-1, got, e)
		}
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	p, _ := New(align.DefaultDNA, 4, nil)
	m, n := 10000, 1000000
	h15 := p.Threshold(m, n, 1e-15)
	h5 := p.Threshold(m, n, 1e-5)
	h10 := p.Threshold(m, n, 10)
	if !(h15 > h5 && h5 > h10) {
		t.Errorf("thresholds not decreasing in E: %d, %d, %d", h15, h5, h10)
	}
	// Larger search space raises the threshold.
	if p.Threshold(m, 10*n, 10) <= h10 {
		t.Error("threshold should grow with the text")
	}
}

func TestThresholdForClampsToMinThreshold(t *testing.T) {
	// A huge E-value on a tiny search space would give H below the
	// exactness floor; ThresholdFor must clamp it.
	s := align.DefaultDNA
	h, err := ThresholdFor(s, 4, 10, 50, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if h < s.MinThreshold() {
		t.Errorf("H = %d below MinThreshold %d", h, s.MinThreshold())
	}
}

func TestThresholdForRealisticScale(t *testing.T) {
	// At paper-like scales the default scheme and E=10 give a
	// threshold in the tens — sanity anchor for the experiments.
	h, err := ThresholdFor(align.DefaultDNA, 4, 1_000_000, 1_000_000_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h < 20 || h > 40 {
		t.Errorf("H = %d out of the plausible range [20, 40]", h)
	}
}

func TestNewRejectsDegenerateAlphabet(t *testing.T) {
	for _, sigma := range []int{-1, 0, 1} {
		if _, err := New(align.DefaultDNA, sigma, nil); err == nil {
			t.Errorf("sigma %d accepted", sigma)
		}
		if _, err := ThresholdFor(align.DefaultDNA, sigma, 100, 1000, 10); err == nil {
			t.Errorf("ThresholdFor: sigma %d accepted", sigma)
		}
	}
}

func TestNewProteinFallbackK(t *testing.T) {
	p, err := New(align.DefaultProtein, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 0.3 {
		t.Errorf("protein fallback K = %g, want 0.3", p.K)
	}
	if p.Lambda <= 0 {
		t.Errorf("λ = %g", p.Lambda)
	}
}
