package seq

import (
	"math/rand"
)

// GenomeConfig controls RandomGenome. The defaults (zero value plus
// Length) produce an i.i.d. uniform sequence; the repeat knobs inject
// the kind of duplicated structure that real genomes have and that both
// the suffix-trie sharing of BWT-SW and the score-reuse technique of
// ALAE (§4) exploit.
type GenomeConfig struct {
	Length int // number of characters to generate

	// GC is the combined probability of G and C for DNA texts.
	// 0 means 0.5 (uniform). Ignored for non-DNA alphabets.
	GC float64

	// RepeatFraction is the fraction of the text produced by copying
	// earlier segments (tandem and interspersed repeats), in [0, 1).
	RepeatFraction float64

	// RepeatMinLen/RepeatMaxLen bound the copied segment lengths.
	// Defaults: 50 and 500.
	RepeatMinLen, RepeatMaxLen int

	// RepeatMutationRate is the per-character probability that a copied
	// character is substituted, modelling diverged repeat families.
	RepeatMutationRate float64
}

func (cfg *GenomeConfig) fillDefaults() {
	if cfg.GC == 0 {
		cfg.GC = 0.5
	}
	if cfg.RepeatMinLen == 0 {
		cfg.RepeatMinLen = 50
	}
	if cfg.RepeatMaxLen == 0 {
		cfg.RepeatMaxLen = 500
	}
	if cfg.RepeatMaxLen < cfg.RepeatMinLen {
		cfg.RepeatMaxLen = cfg.RepeatMinLen
	}
}

// RandomSeq returns n i.i.d. letters drawn from the alphabet with the
// given distribution (uniform when freqs is nil).
func RandomSeq(a *Alphabet, n int, freqs []float64, rng *rand.Rand) []byte {
	if freqs == nil {
		out := make([]byte, n)
		for i := range out {
			out[i] = a.Letter(rng.Intn(a.Size()))
		}
		return out
	}
	cum := make([]float64, len(freqs))
	sum := 0.0
	for i, f := range freqs {
		sum += f
		cum[i] = sum
	}
	out := make([]byte, n)
	for i := range out {
		x := rng.Float64() * sum
		k := 0
		for k < len(cum)-1 && x > cum[k] {
			k++
		}
		out[i] = a.Letter(k)
	}
	return out
}

// dnaFreqs returns the DNA letter distribution for a GC content.
// Letter order is A, C, G, T.
func dnaFreqs(gc float64) []float64 {
	at := (1 - gc) / 2
	return []float64{at, gc / 2, gc / 2, at}
}

// RandomGenome generates a synthetic genome-like text. It stands in for
// the paper's GRCh37 human text (DNA) and UniParc text (protein); see
// DESIGN.md. The generator is deterministic for a given rng seed.
func RandomGenome(a *Alphabet, cfg GenomeConfig, rng *rand.Rand) []byte {
	cfg.fillDefaults()
	var freqs []float64
	if a == DNA {
		freqs = dnaFreqs(cfg.GC)
	}
	out := make([]byte, 0, cfg.Length)
	for len(out) < cfg.Length {
		if len(out) > cfg.RepeatMaxLen && rng.Float64() < cfg.RepeatFraction {
			// Copy an earlier segment (a repeat), lightly mutated.
			segLen := cfg.RepeatMinLen
			if cfg.RepeatMaxLen > cfg.RepeatMinLen {
				segLen += rng.Intn(cfg.RepeatMaxLen - cfg.RepeatMinLen)
			}
			segLen = min(segLen, cfg.Length-len(out))
			src := rng.Intn(len(out) - segLen + 1)
			for i := 0; i < segLen; i++ {
				c := out[src+i]
				if rng.Float64() < cfg.RepeatMutationRate {
					c = a.Letter(rng.Intn(a.Size()))
				}
				out = append(out, c)
			}
			continue
		}
		// A stretch of fresh random sequence.
		stretch := min(1+rng.Intn(200), cfg.Length-len(out))
		out = append(out, RandomSeq(a, stretch, freqs, rng)...)
	}
	return out
}

// MutationConfig controls Mutate.
type MutationConfig struct {
	SubstitutionRate float64 // per-character substitution probability
	IndelRate        float64 // per-character gap-opening probability
	IndelMaxLen      int     // maximum indel length (default 3)
}

// Mutate returns a copy of s with random substitutions and indels
// applied, modelling a homologous sequence from a related species.
func Mutate(a *Alphabet, s []byte, cfg MutationConfig, rng *rand.Rand) []byte {
	if cfg.IndelMaxLen <= 0 {
		cfg.IndelMaxLen = 3
	}
	out := make([]byte, 0, len(s)+len(s)/10)
	for i := 0; i < len(s); i++ {
		if rng.Float64() < cfg.IndelRate {
			n := 1 + rng.Intn(cfg.IndelMaxLen)
			if rng.Intn(2) == 0 {
				// Deletion: skip n characters of s.
				i += n - 1
				continue
			}
			// Insertion: emit n random characters, then s[i].
			for k := 0; k < n; k++ {
				out = append(out, a.Letter(rng.Intn(a.Size())))
			}
		}
		c := s[i]
		if rng.Float64() < cfg.SubstitutionRate {
			// Substitute with a different letter.
			for {
				nc := a.Letter(rng.Intn(a.Size()))
				if nc != c {
					c = nc
					break
				}
			}
		}
		out = append(out, c)
	}
	return out
}

// HomologousQueries builds count queries of length qlen consisting of
// random background sequence with mutated text segments embedded —
// the structure of the paper's query workloads (mouse-genome queries
// against a human text share conserved segments, not their whole
// length). segLen and segEvery control the conserved-segment length
// and spacing; zeros mean 150 and 600.
func HomologousQueries(a *Alphabet, text []byte, count, qlen, segLen, segEvery int, cfg MutationConfig, rng *rand.Rand) [][]byte {
	if segLen <= 0 {
		segLen = 150
	}
	if segEvery <= 0 {
		segEvery = 600
	}
	if segLen > qlen {
		segLen = qlen
	}
	if segLen > len(text) {
		segLen = len(text)
	}
	out := make([][]byte, count)
	for i := range out {
		q := RandomSeq(a, qlen, nil, rng)
		var segs [][]byte
		for off := segEvery / 3; off+segLen <= qlen; off += segEvery {
			var seg []byte
			if len(segs) > 0 && rng.Float64() < 0.5 {
				// Duplicate an earlier segment verbatim: queries from
				// real genomes carry near-identical internal
				// duplications (satellites, transposon families), the
				// structure §4's score reuse exploits.
				seg = segs[rng.Intn(len(segs))]
			} else {
				src := 0
				if len(text) > segLen {
					src = rng.Intn(len(text) - segLen)
				}
				seg = Mutate(a, text[src:src+segLen], cfg, rng)
			}
			segs = append(segs, seg)
			if len(seg) > qlen-off {
				seg = seg[:qlen-off]
			}
			copy(q[off:], seg)
		}
		out[i] = q
	}
	return out
}
