// Package alae is a reproduction of "ALAE: Accelerating Local
// Alignment with Affine Gap Exactly in Biosequence Databases"
// (Yang, Liu, Wang — PVLDB 5(11), 2012).
//
// ALAE answers local-alignment searches exactly: given a text (a
// genome or a concatenated sequence database), a query, an affine-gap
// scoring scheme ⟨sa,sb,sg,ss⟩ and a score threshold (or an E-value),
// it reports every end-position pair whose best local-alignment score
// reaches the threshold — the same answer a full Smith-Waterman sweep
// produces — using a compressed suffix array and a family of pruning
// filters.
//
// Basic use:
//
//	ix := alae.NewIndex(text)
//	res, err := ix.Search(query, alae.SearchOptions{EValue: 10})
//	for _, hit := range res.Hits { ... }
//
// The same Index also serves the paper's baselines (BWT-SW, a
// BLAST-like heuristic, and plain Smith-Waterman) through
// SearchOptions.Algorithm, which is how the evaluation harness
// compares them.
package alae

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/align"
	"repro/internal/blast"
	"repro/internal/bwtsw"
	"repro/internal/core"
	"repro/internal/evalue"
	"repro/internal/strie"
)

// Scheme is the affine-gap scoring scheme ⟨sa, sb, sg, ss⟩.
type Scheme = align.Scheme

// Hit is one result: 0-based inclusive end positions in the text and
// the query, with the best score of any alignment ending there.
type Hit = align.Hit

// Alignment is a fully resolved alignment with its operation list.
type Alignment = align.Alignment

// Canonical schemes.
var (
	// DefaultDNAScheme is ⟨1,−3,−5,−2⟩, the default of BLAST, BWT-SW
	// and the paper.
	DefaultDNAScheme = align.DefaultDNA
	// DefaultProteinScheme is ⟨1,−3,−11,−1⟩, used by the paper's
	// protein experiments.
	DefaultProteinScheme = align.DefaultProtein
)

// Algorithm selects the search engine.
type Algorithm int

const (
	// ALAE is the paper's contribution (DFS engine mode): exact, with
	// all filters enabled. The paper's score-reuse mode (Algorithm 3)
	// is kept only as the reproduction reference of its reuse figures
	// and is not served.
	ALAE Algorithm = iota
	// BWTSW is the exact baseline of Lam et al. 2008.
	BWTSW
	// BLAST is the heuristic seed-and-extend baseline; fast but may
	// miss results.
	BLAST
	// SmithWaterman is the full O(n·m) Gotoh sweep.
	SmithWaterman
)

func (a Algorithm) String() string {
	switch a {
	case ALAE:
		return "ALAE"
	case BWTSW:
		return "BWT-SW"
	case BLAST:
		return "BLAST"
	case SmithWaterman:
		return "Smith-Waterman"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// SearchOptions configures one search. The zero value means: ALAE
// engine, default DNA scheme, threshold derived from E-value 10 (the
// BLAST/BWT-SW default, §7).
type SearchOptions struct {
	// Scheme is the scoring scheme; zero means DefaultDNAScheme.
	Scheme Scheme
	// Threshold is the raw score threshold H. When 0 it is derived
	// from EValue via the Karlin-Altschul statistics of §7.
	Threshold int
	// EValue is the expectation value used when Threshold is 0.
	// 0 means 10, the default of BLAST and BWT-SW.
	EValue float64
	// Algorithm selects the engine (default ALAE).
	Algorithm Algorithm
	// AlphabetSize is σ for the E-value statistics; 0 means the
	// number of distinct bytes in the indexed text.
	AlphabetSize int
	// Parallelism is the number of worker goroutines the ALAE engines
	// spread a single search's fork families over: 0 means
	// runtime.NumCPU(), 1 is the sequential engine. Any value yields
	// exactly the sequential hit set and work statistics. The baseline
	// engines (BWT-SW, BLAST, Smith-Waterman) ignore it.
	Parallelism int
	// DisableFilters switches off ALAE's length/score/domination
	// filters (ablation runs; exactness is unaffected).
	DisableLengthFilter, DisableScoreFilter, DisableDomination bool
}

// Stats summarises the work a search performed, in the units the
// paper's evaluation uses.
type Stats struct {
	CalculatedEntries int64 // DP cells computed
	ComputationCost   int64 // weighted cost (§7.2 Table 4 accounting)
	NodesVisited      int64 // emulated suffix-trie nodes entered with live state
	ForksStarted      int64
	ForksDominated    int64 // forks pruned by q-prefix domination
	QueryCacheHits    int64 // Store only: whole results served from the query cache
	QueryCacheMisses  int64 // Store only: results computed and published to the cache
	Seeds             int64 // BLAST only: word hits examined

	// EmittedHits counts the occurrence-resolved (tEnd, qEnd) cells the
	// ALAE engine forwarded to the result collector;
	// SuppressedEmissions counts the duplicates the diagonal dominance
	// filter dropped before the collector (a provable no-op, so hit sets
	// are unaffected). Both are invariant under Parallelism.
	EmittedHits         int64
	SuppressedEmissions int64
}

// add accumulates another search's counters into st — the store's
// gather sums its per-generation statistics with it.
func (st *Stats) add(o Stats) {
	st.CalculatedEntries += o.CalculatedEntries
	st.ComputationCost += o.ComputationCost
	st.NodesVisited += o.NodesVisited
	st.ForksStarted += o.ForksStarted
	st.ForksDominated += o.ForksDominated
	st.QueryCacheHits += o.QueryCacheHits
	st.QueryCacheMisses += o.QueryCacheMisses
	st.Seeds += o.Seeds
	st.EmittedHits += o.EmittedHits
	st.SuppressedEmissions += o.SuppressedEmissions
}

// Result is one search's outcome.
type Result struct {
	Hits      []Hit
	Threshold int // the H actually used
	Algorithm Algorithm
	Stats     Stats
}

// engineKey identifies one ALAE engine configuration: the ablation
// filter switches. Every configuration is cached, so repeated searches
// — ablation sweeps included — reuse engines instead of rebuilding them
// per call.
type engineKey struct {
	noLength, noScore, noDomination bool
}

// Index is a searchable text. Building it costs O(n) time and memory;
// afterwards any number of concurrent searches can run against it.
type Index struct {
	text    []byte
	trie    *strie.Trie
	barrier byte // core.Options.BarrierByte for the ALAE engines; 0 = none

	mu    sync.Mutex
	alae  map[engineKey]*core.Engine
	bwtsw *bwtsw.Engine
	blast *blast.Engine
}

// NewIndex builds the compressed-suffix-array index of text (the BWT
// of the reversed text plus occurrence checkpoints and position
// samples, §5).
func NewIndex(text []byte) *Index {
	return &Index{
		text: text,
		trie: strie.New(text),
		alae: make(map[engineKey]*core.Engine),
	}
}

// newBarrierIndex is NewIndex with the ALAE engines' barrier byte set:
// trie edges labelled barrier are never descended, so no reported
// alignment can span an occurrence of that byte (core.Options,
// BarrierByte). The store builds its generation indexes this way with
// the member separator, making cross-member hits structurally
// impossible for the exact engines; plain NewIndex stays barrier-free
// so single-text indexes (and the paper-parity experiments over them)
// are untouched. Callers must reject queries containing the byte — the
// store's query validation does.
func newBarrierIndex(text []byte, barrier byte) *Index {
	ix := NewIndex(text)
	ix.barrier = barrier
	return ix
}

// Text returns the indexed text. Callers must not modify it.
func (ix *Index) Text() []byte { return ix.text }

// Len returns the text length n.
func (ix *Index) Len() int { return len(ix.text) }

// SizeBytes reports the index's in-memory footprint (the BWT index of
// Figure 11): the rank core, the C array, the bit-packed position
// samples and their bitmap. No domination table is kept beside it.
func (ix *Index) SizeBytes() int { return ix.trie.Index().SizeBytes() }

// PackedSizeBytes reports the footprint with the BWT packed at
// ⌈log2 σ⌉ bits per character, the paper's accounting.
func (ix *Index) PackedSizeBytes() int { return ix.trie.Index().PackedSizeBytes() }

// DominationIndexSize reports the resident size of the q-prefix
// domination index of §3.2.2 for the given scheme: 0, because a search
// answers Lemma 1 from the FM-index and keeps no table. The scheme is
// still checked; a zero scheme means DefaultDNAScheme, as in
// SearchOptions. The paper's offline table is sized by
// `alae-exp -exp fig11`.
func (ix *Index) DominationIndexSize(s Scheme) (int, error) {
	_, err := resolveScheme(SearchOptions{Scheme: s})
	return 0, err
}

func (ix *Index) alaeEngine(opts SearchOptions) *core.Engine {
	key := engineKey{
		noLength:     opts.DisableLengthFilter,
		noScore:      opts.DisableScoreFilter,
		noDomination: opts.DisableDomination,
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if e, ok := ix.alae[key]; ok {
		return e
	}
	e := core.NewFromTrie(ix.trie, core.Options{
		DisableLengthFilter: opts.DisableLengthFilter,
		DisableScoreFilter:  opts.DisableScoreFilter,
		DisableDomination:   opts.DisableDomination,
		BarrierByte:         ix.barrier,
	})
	ix.alae[key] = e
	return e
}

// resolveScheme is the one options gate: Index.SearchContext,
// ResolveThreshold, Store.SearchContext and the SearchAll pool all pass
// it, once per call, before any lane opens. It returns the scheme the
// search runs with (zero means DefaultDNAScheme) and rejects
// configurations that are always caller bugs, independently of any
// query: an invalid scheme; a negative threshold, E-value or
// parallelism (silently falling back to the defaults would hide them);
// an alphabet size of 1 or below 0, for which the E-value statistics
// are undefined; an unknown algorithm; and a scheme the selected
// baseline cannot run.
func resolveScheme(opts SearchOptions) (Scheme, error) {
	s := opts.Scheme
	if s == (Scheme{}) {
		s = DefaultDNAScheme
	}
	if err := s.Validate(); err != nil {
		return Scheme{}, err
	}
	switch {
	case opts.Threshold < 0:
		return Scheme{}, fmt.Errorf("alae: negative threshold %d; use 0 to derive the threshold from the E-value", opts.Threshold)
	case opts.EValue < 0:
		return Scheme{}, fmt.Errorf("alae: negative E-value %g; use 0 for the default of 10", opts.EValue)
	case opts.Parallelism < 0:
		return Scheme{}, fmt.Errorf("alae: negative parallelism %d; use 0 for all cores, 1 for the sequential engine", opts.Parallelism)
	case opts.AlphabetSize < 0 || opts.AlphabetSize == 1:
		return Scheme{}, fmt.Errorf("alae: alphabet size %d; use 0 for the indexed text's, or at least 2", opts.AlphabetSize)
	}
	switch opts.Algorithm {
	case ALAE, BLAST, SmithWaterman:
	case BWTSW:
		if !s.BWTSWCompatible() {
			return Scheme{}, fmt.Errorf("alae: BWT-SW requires |sb| ≥ 3·|sa| (scheme %v); see §2.4", s)
		}
	default:
		return Scheme{}, fmt.Errorf("alae: unknown algorithm %v", opts.Algorithm)
	}
	return s, nil
}

// resolveThresholdOver derives the raw score threshold for a query of
// length m against a database of length n and alphabet size dbSigma —
// the one shared derivation behind Index.ResolveThreshold and the
// store's global-threshold resolution, so the two can never diverge
// (the store's parity gates depend on them agreeing). s and opts
// must have passed resolveScheme.
func resolveThresholdOver(s Scheme, opts SearchOptions, m, n, dbSigma int) (int, error) {
	if opts.Threshold > 0 {
		return opts.Threshold, nil
	}
	ev := opts.EValue
	if ev == 0 {
		ev = 10
	}
	sigma := opts.AlphabetSize
	if sigma == 0 {
		sigma = dbSigma
		if sigma < 2 {
			sigma = 4
		}
	}
	return evalue.ThresholdFor(s, sigma, m, max(n, 1), ev)
}

// ResolveThreshold returns the raw score threshold a search with
// these options would use for a query of length m, or the error such
// a search would fail with.
func (ix *Index) ResolveThreshold(m int, opts SearchOptions) (int, error) {
	s, err := resolveScheme(opts)
	if err != nil {
		return 0, err
	}
	return resolveThresholdOver(s, opts, m, ix.Len(), ix.trie.Index().Sigma())
}

// Search runs a local-alignment search for query against the index on
// a lane drawn warm from the engine's pool: once warm it allocates only
// the lane, the Result and the hit slice (TestIndexSearchAllocBound).
//
// For the ALAE engine (q-gram based), queries shorter than the
// scheme's gram length q are rejected with a descriptive error: no
// q-gram window fits, so the engine would otherwise return a silently
// empty hit set — almost always a caller bug (truncated input, wrong
// scheme). The Smith-Waterman baseline has no such floor.
func (ix *Index) Search(query []byte, opts SearchOptions) (*Result, error) {
	return ix.SearchContext(context.Background(), query, opts)
}

// SearchContext is Search under a context. The ALAE engine polls the
// context's done channel at entry-budget checkpoints inside the
// traversal loops, so a deadline or cancellation aborts a running
// search with the context's error within a bounded number of DP
// entries per worker; the index and its pooled sessions remain fully
// usable afterwards. The baseline algorithms (BWT-SW, BLAST,
// Smith-Waterman) only check the context at admission — once running
// they complete; they exist for offline evaluation, not serving. A
// background context adds no measurable overhead to any path.
func (ix *Index) SearchContext(cx context.Context, query []byte, opts SearchOptions) (*Result, error) {
	s, err := resolveScheme(opts)
	if err != nil {
		return nil, err
	}
	ln := ix.newLane(opts, s)
	defer ln.release()
	return ln.searchIndex(cx, query)
}

// searchBaseline runs one query through a baseline algorithm (BWT-SW,
// BLAST or Smith-Waterman) at threshold h, collecting into c. alg and s
// have passed resolveScheme.
func (ix *Index) searchBaseline(query []byte, alg Algorithm, s Scheme, h int, c *align.Collector) Stats {
	switch alg {
	case BWTSW:
		// Scheme compatibility was vetted by resolveScheme.
		ix.mu.Lock()
		if ix.bwtsw == nil {
			ix.bwtsw = bwtsw.NewFromTrie(ix.trie)
		}
		e := ix.bwtsw
		ix.mu.Unlock()
		st := e.Search(query, s, h, c)
		return Stats{
			CalculatedEntries: st.CalculatedEntries,
			ComputationCost:   st.ComputationCost(),
			NodesVisited:      st.NodesVisited,
		}
	case BLAST:
		ix.mu.Lock()
		if ix.blast == nil {
			ix.blast = blast.New(ix.text, ix.trie.Letters(), blast.Options{})
		}
		e := ix.blast
		ix.mu.Unlock()
		st := e.Search(query, s, h, c)
		return Stats{
			CalculatedEntries: st.CalculatedEntries,
			Seeds:             st.Seeds,
		}
	default: // SmithWaterman
		cells := align.LocalAllInto(ix.text, query, s, h, c)
		return Stats{
			CalculatedEntries: int64(cells),
			ComputationCost:   3 * int64(cells),
		}
	}
}

// Align reconstructs the best alignment ending at a hit, for display.
// A zero scheme means DefaultDNAScheme, as in SearchOptions.
func (ix *Index) Align(query []byte, s Scheme, hit Hit) (Alignment, error) {
	s, err := resolveScheme(SearchOptions{Scheme: s})
	if err != nil {
		return Alignment{}, err
	}
	return align.Traceback(ix.text, query, s, hit)
}

// FormatAlignment renders an alignment against this index's text.
func (ix *Index) FormatAlignment(a Alignment, query []byte, width int) string {
	return a.Format(ix.text, query, width)
}

// Region is a cluster of nearby hits summarised by its best one; see
// MergeRegions.
type Region = align.Region

// MergeRegions collapses the exact engines' dense per-end-pair hits
// into distinct alignment regions: hits within slack of an anchored
// best hit (same diagonal neighbourhood) merge into one region.
// Regions come back ordered by descending best score.
func MergeRegions(hits []Hit, slack int) []Region { return align.MergeRegions(hits, slack) }

// TopK returns the k highest-scoring hits (all when k ≤ 0), with a
// deterministic positional tiebreak.
func TopK(hits []Hit, k int) []Hit { return align.TopK(hits, k) }
