package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"slices"

	alae "repro"
	"repro/internal/seq"
)

// workload is one named set of inputs. The program under test only
// ever sees the byte slices; everything here is derived from the seed.
type workload struct {
	name   string
	served bool // driven through alae-serve's HTTP handler instead of Index.Search
	alpha  *seq.Alphabet
	scheme alae.Scheme
	text   []byte // the database: indexed whole by the library workloads, cut into members by serve-mixed

	// queries are the distinct queries. A library pass runs each once,
	// in order; a pass over HTTP (serve-mixed end to end, and the loaded
	// mutations of every traced run) runs each client's request list,
	// whose entries index into queries.
	queries  [][]byte
	requests [][]int

	// appendPool holds the fresh members the mutating client (and the
	// store probes of the traced run) append, cycled in order.
	appendPool [][]byte
}

// storeMembers is the member count of every multi-member store the
// benchmark builds.
const storeMembers = 64

// workloadNames are fixed: later changes cite them. BENCHMARK.json
// records why each exists.
var workloadNames = []string{"dna-long", "dna-reads", "prot-emit", "serve-mixed"}

// searchOptions pins everything a number could otherwise inherit from
// the host: the engine, one lane, and the E-value the paper uses.
func (w *workload) searchOptions() alae.SearchOptions {
	return alae.SearchOptions{Scheme: w.scheme, EValue: 10, Algorithm: alae.ALAE, Parallelism: 1}
}

// scaled shrinks a full-size parameter for the smoke test, never below
// floor.
func scaled(full int, scale float64, floor int) int {
	return max(int(float64(full)*scale), floor)
}

var (
	dnaGenome     = seq.GenomeConfig{GC: 0.41, RepeatFraction: 0.08, RepeatMutationRate: 0.05}
	dnaDivergence = seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.01}
)

// The protein text is protFamilies ancestral segments of protCopyLen
// residues, each present in as many lightly diverged copies as fill n.
const (
	protFamilies = 8
	protCopyLen  = 750
)

// repeatFamilies builds the repeat-dense protein text: every copy is
// its family's ancestor with every 50th residue (2%) substituted, at a
// phase of its own, and the copies of all families are laid out in
// shuffled order. It returns the text and the start of every copy (copy
// i belongs to family i % protFamilies).
//
// exp.ProteinEmissionWorkload reaches the same density by letting
// seq.RandomGenome copy earlier copies and by mutating at random
// positions. Then the number of near-copies a query window has, and
// where the mismatches cluster, differ from seed to seed, and with them
// entries, hits and time per query — two-fold, wider than any bound
// the benchmark could state. Here the seed decides every residue, but
// how many copies there are and where they differ is the workload's
// definition, which keeps the work of one seed within a few percent of
// the next one's.
func repeatFamilies(n int, rng *rand.Rand) (text []byte, origins []int) {
	ancestors := make([][]byte, protFamilies)
	for f := range ancestors {
		ancestors[f] = seq.RandomSeq(seq.Protein, protCopyLen, nil, rng)
	}
	copies := n / protCopyLen
	origins = make([]int, copies)
	text = make([]byte, 0, n)
	for _, c := range rng.Perm(copies) {
		origins[c] = len(text)
		text = append(text, substituteEvery(ancestors[c%protFamilies], 50, c*7%50, rng)...)
	}
	return text, origins
}

// substituteEvery returns a copy of s with the residues at phase,
// phase+period, ... replaced by a different random residue.
func substituteEvery(s []byte, period, phase int, rng *rand.Rand) []byte {
	out := slices.Clone(s)
	for i := phase; i < len(out); i += period {
		for out[i] == s[i] {
			out[i] = seq.Protein.Letter(rng.Intn(seq.Protein.Size()))
		}
	}
	return out
}

// protQuery is a window of a copy diverged the way the text's copies
// are from each other, only more: every 33rd residue (3%) substituted,
// one residue deleted a third of the way in and one inserted at two
// thirds.
func protQuery(window []byte, rng *rand.Rand) []byte {
	q := substituteEvery(window, 33, rng.Intn(33), rng)
	q = slices.Delete(q, len(q)/3, len(q)/3+1)
	return slices.Insert(q, 2*len(q)/3, seq.Protein.Letter(rng.Intn(seq.Protein.Size())))
}

func dnaText(n int, rng *rand.Rand) []byte {
	cfg := dnaGenome
	cfg.Length = n
	return seq.RandomGenome(seq.DNA, cfg, rng)
}

// newWorkload generates the named workload from seed. The DNA
// generators take the parameters of exp.DNAWorkload (one rng, text
// first, then queries), so dna-long at seed 42 starts with the two
// queries of the Table 2 gate.
func newWorkload(name string, seed int64, scale float64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{name: name, alpha: seq.DNA, scheme: alae.DefaultDNAScheme}
	switch name {
	case "dna-long":
		m := scaled(5000, scale, 250)
		w.text = dnaText(scaled(200_000, scale, 5000), rng)
		w.queries = seq.HomologousQueries(seq.DNA, w.text, scaled(24, scale, 2), m, 100, m/2, dnaDivergence, rng)
	case "dna-reads":
		w.text = dnaText(scaled(4_000_000, scale, 50_000), rng)
		// DNAWorkload's parameters at m=150 embed no conserved segment:
		// the reads are background sequence that maps nowhere, so
		// every search is shallow, wide and bound by rank misses.
		w.queries = seq.HomologousQueries(seq.DNA, w.text, scaled(200, scale, 8), 150, 100, 2500, dnaDivergence, rng)
	case "prot-emit":
		w.alpha, w.scheme = seq.Protein, alae.DefaultProteinScheme
		const m = 300
		var origins []int
		w.text, origins = repeatFamilies(scaled(30_000, scale, 6000), rng)
		w.queries = make([][]byte, scaled(16, scale, 2))
		for i := range w.queries {
			src := origins[i%len(origins)] + rng.Intn(protCopyLen-m)
			w.queries[i] = protQuery(w.text[src:src+m], rng)
		}
	case "serve-mixed":
		w.served = true
		n := scaled(200_000, scale, 10_000)
		m := scaled(600, scale, 120)
		w.text = dnaText(n, rng)
		const clients = 2
		perClient := scaled(100, scale, 15)
		distinct := perClient - perClient/5
		// One conserved segment per query: DNAWorkload's spacing of 2500
		// would leave a 600-base query with none.
		w.queries = seq.HomologousQueries(seq.DNA, w.text, clients*distinct, m, 100, m, dnaDivergence, rng)
		for c := 0; c < clients; c++ {
			list, next := make([]int, perClient), c*distinct
			for i := range list {
				if i%5 == 4 {
					list[i] = list[i-2] // a repeat the query cache can answer
				} else {
					list[i] = next
					next++
				}
			}
			w.requests = append(w.requests, list)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if w.requests == nil { // two clients, every other query each
		w.requests = make([][]int, 2)
		for qi := range w.queries {
			w.requests[qi%2] = append(w.requests[qi%2], qi)
		}
	}
	// An eighth of the database per appended member: 25 kb on the
	// full-size DNA stores.
	for i := 0; i < 8; i++ {
		cfg := seq.GenomeConfig{Length: max(len(w.text)/8, 16)}
		if w.alpha == seq.DNA {
			cfg.GC = dnaGenome.GC
		}
		w.appendPool = append(w.appendPool, seq.RandomGenome(w.alpha, cfg, rng))
	}
	return w, nil
}

// fingerprint digests every generated input, so a silent change to the
// generators shows as a changed ruler rather than a changed result.
func (w *workload) fingerprint() string {
	h := fnv.New64a()
	hashBytes(h, w.text)
	for _, q := range w.queries {
		hashBytes(h, q)
	}
	for _, list := range w.requests {
		for _, qi := range list {
			hashBytes(h, []byte{byte(qi), byte(qi >> 8)})
		}
	}
	for _, a := range w.appendPool {
		hashBytes(h, a)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashBytes folds one length-prefixed byte string into h, so that
// moving a byte between neighbouring strings changes the digest.
func hashBytes(h hash.Hash64, b []byte) {
	var n [8]byte
	for i := range n {
		n[i] = byte(len(b) >> (8 * i))
	}
	h.Write(n[:])
	h.Write(b)
}

// members cuts the text into k named records of equal length (the last
// takes the remainder).
func (w *workload) members(k int) []alae.SeqRecord {
	recs := make([]alae.SeqRecord, k)
	size := len(w.text) / k
	for i := range recs {
		end := (i + 1) * size
		if i == k-1 {
			end = len(w.text)
		}
		recs[i] = alae.SeqRecord{Name: fmt.Sprintf("m%03d", i), Seq: w.text[i*size : end]}
	}
	return recs
}

// queryLen is m for the effective-GCUPS accounting: the mean query
// length (mutation makes lengths differ by a few characters).
func (w *workload) queryLen() float64 {
	total := 0
	for _, q := range w.queries {
		total += len(q)
	}
	return float64(total) / float64(len(w.queries))
}
