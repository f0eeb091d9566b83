// Package evalue implements the Karlin-Altschul statistics that relate
// alignment scores to expectation values. The paper's experiments set
// the threshold indirectly: "E = K·m·n·e^{−λS}", hence
// "H = ⌈(ln(K·m·n) − ln E)/λ⌉" (§7, citing OASIS [11]); λ and K are
// the scaling constants computed by BLAST.
//
// λ is the unique positive solution of Σ p_a·p_b·e^{λ·s(a,b)} = 1 and
// is computed exactly by bisection. K has no simple closed form; NCBI
// BLAST computes it with Karlin's algorithm over the score
// distribution, and for the match/mismatch schemes used in the paper
// it publishes the values. We ship those published constants for the
// standard DNA schemes and fall back to a documented approximation for
// other schemes; the threshold H depends on K only through ln K, so
// even a crude K moves H by at most a point or two.
package evalue

import (
	"fmt"
	"math"

	"repro/internal/align"
)

// Params are the Karlin-Altschul scaling constants for a scheme and a
// background letter distribution.
type Params struct {
	Lambda float64
	K      float64
}

// Lambda solves Σ_a Σ_b p_a·p_b·e^{λ·s(a,b)} = 1 for λ > 0 under a
// uniform match/mismatch scheme: with pMatch = Σ p_a², the equation is
// pMatch·e^{λ·sa} + (1−pMatch)·e^{λ·sb} = 1. An error is returned when
// the expected score is non-negative (no positive root exists; such
// schemes are unusable for local alignment statistics).
func Lambda(s align.Scheme, freqs []float64) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	pMatch := 0.0
	for _, p := range freqs {
		pMatch += p * p
	}
	if pMatch <= 0 || pMatch >= 1 {
		return 0, fmt.Errorf("evalue: degenerate match probability %g", pMatch)
	}
	expected := pMatch*float64(s.Match) + (1-pMatch)*float64(s.Mismatch)
	if expected >= 0 {
		return 0, fmt.Errorf("evalue: expected score %g is non-negative; no positive λ", expected)
	}
	f := func(l float64) float64 {
		return pMatch*math.Exp(l*float64(s.Match)) + (1-pMatch)*math.Exp(l*float64(s.Mismatch)) - 1
	}
	// f(0) = 0, f'(0) = expected < 0, f(∞) = +∞: bracket the positive root.
	lo, hi := 0.0, 1.0
	for f(hi) < 0 {
		hi *= 2
		if hi > 1e3 {
			return 0, fmt.Errorf("evalue: λ bracket exploded for scheme %v", s)
		}
	}
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// publishedK carries NCBI's ungapped K for the standard uniform-DNA
// match/mismatch pairs (blastn tables; gap scores do not enter the
// ungapped constants).
var publishedK = map[[2]int]float64{
	{1, -2}: 0.46,
	{1, -3}: 0.711,
	{1, -4}: 0.7916,
	{2, -3}: 0.46,
	{4, -5}: 0.22,
	{1, -1}: 0.0516,
}

// New computes the Karlin-Altschul parameters for a scheme over a
// background distribution (uniform when freqs is nil, given the
// alphabet size sigma, which must then be at least 2).
func New(s align.Scheme, sigma int, freqs []float64) (Params, error) {
	if freqs == nil {
		if sigma < 2 {
			return Params{}, fmt.Errorf("evalue: alphabet size %d; a uniform background needs at least 2 letters", sigma)
		}
		freqs = make([]float64, sigma)
		for i := range freqs {
			freqs[i] = 1 / float64(sigma)
		}
	}
	lambda, err := Lambda(s, freqs)
	if err != nil {
		return Params{}, err
	}
	k, ok := publishedK[[2]int{s.Match, s.Mismatch}]
	if !ok || sigma != 4 {
		// Fallback: K ≈ λ·ĥ/H_rel is crude; we use the simpler and
		// long-serving heuristic K ≈ 0.3, acceptable because H moves
		// with ln K only.
		k = 0.3
	}
	return Params{Lambda: lambda, K: k}, nil
}

// EValue returns the expected number of chance alignments with score
// at least s when searching a query of length m against a text of
// length n: E = K·m·n·e^{−λ·s}.
func (p Params) EValue(m, n int, score int) float64 {
	return p.K * float64(m) * float64(n) * math.Exp(-p.Lambda*float64(score))
}

// Threshold converts an E-value to the smallest raw score H whose
// E-value is at most e: H = ⌈(ln(K·m·n) − ln E)/λ⌉, the formula of §7.
func (p Params) Threshold(m, n int, e float64) int {
	h := (math.Log(p.K*float64(m)*float64(n)) - math.Log(e)) / p.Lambda
	return int(math.Ceil(h))
}

// ThresholdFor is the one-call convenience the engines use: compute
// the constants for the scheme and derive H from an E-value, clamped
// up to the scheme's minimum exact threshold (see
// align.Scheme.MinThreshold).
func ThresholdFor(s align.Scheme, sigma, m, n int, e float64) (int, error) {
	p, err := New(s, sigma, nil)
	if err != nil {
		return 0, err
	}
	h := p.Threshold(m, n, e)
	if minH := s.MinThreshold(); h < minH {
		h = minH
	}
	return h, nil
}
