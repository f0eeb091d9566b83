package core

// Stats accounts for the work one ALAE search performs, at the
// granularity the paper's evaluation reports (§7.2, Tables 4-5,
// Figures 7 and 10).
//
// Entry classes follow the paper's cost model:
//   - EMR entries are assigned, not calculated ("these scores could be
//     assigned without any calculation", §3.1.3/§4.3) — cost 0;
//   - NGR entries use the gap-free recurrence of Equation 3 — cost 1;
//   - fork-boundary entries rely on two adjacent entries — cost 2;
//   - interior gap-region entries need all three recurrences — cost 3.
type Stats struct {
	EntriesEMR      int64 // assigned exact-match-region entries
	EntriesNGR      int64 // calculated no-gap-region entries (cost 1)
	EntriesBoundary int64 // calculated gap-region boundary entries (cost 2)
	EntriesInterior int64 // calculated gap-region interior entries (cost 3)
	ReusedEntries   int64 // entries copied from previous forks (§4)

	ForksConsidered      int64 // q-gram matches examined
	ForksAbsent          int64 // pruned: q-prefix absent from the text (Theorem 3)
	ForksDominated       int64 // pruned: q-prefix domination (Lemma 1)
	ForksGMatrixFiltered int64 // pruned: boolean-matrix global filter (Theorem 4)
	ForksStarted         int64 // forks that produced a fork area

	// NodesVisited counts emulated suffix-trie nodes entered with live
	// alignment state: the gram node of every started family plus each
	// descendant whose row retained at least one live diagonal or band
	// cell after the advance into it. The branching walk (dfsWalk), the
	// width-1 LF walk (dfsLinear) and the hybrid descent all count by
	// this one rule, so the diagnostic is comparable across engine
	// modes and does not depend on where the linear handoff fires.
	NodesVisited int64
	MaxDepth     int // deepest row reached
	Threshold    int // the score threshold H in force
	Q            int // the q-prefix length in force
	Lmax         int // the length-filter bound in force

	// Emission-path accounting (emit.go, hybrid.go). EmittedHits counts
	// the occurrence-resolved (tEnd, qEnd) cells forwarded to the
	// collector; SuppressedEmissions counts the cells the diagonal
	// dominance filter dropped as provable collector no-ops;
	// CopiedEmissions counts the cells the hybrid vertical phase
	// skipped because an earlier sibling branch already forwarded the
	// identical cell (the emitted watermark, hybrid.go). Their sum is
	// the total emission fan-out, and all three are invariant under
	// parallel scheduling (the dominance filter is re-armed and the
	// watermark is path-structured per fork family).
	EmittedHits         int64
	SuppressedEmissions int64
	CopiedEmissions     int64
}

// CalculatedEntries is the number of DP cells ALAE actually computed
// (the quantity bounded by §6 and compared against BWT-SW).
func (st Stats) CalculatedEntries() int64 {
	return st.EntriesNGR + st.EntriesBoundary + st.EntriesInterior
}

// AccessedEntries is calculated plus reused entries, the denominator
// of the paper's reusing ratio (Equation 6).
func (st Stats) AccessedEntries() int64 {
	return st.CalculatedEntries() + st.ReusedEntries
}

// ReusingRatio is Equation 6: reused / accessed.
func (st Stats) ReusingRatio() float64 {
	if a := st.AccessedEntries(); a > 0 {
		return float64(st.ReusedEntries) / float64(a)
	}
	return 0
}

// ComputationCost is the weighted cost of §7.2's Table 4: one unit per
// NGR entry, two per boundary entry, three per interior entry.
func (st Stats) ComputationCost() int64 {
	return st.EntriesNGR + 2*st.EntriesBoundary + 3*st.EntriesInterior
}

// Add accumulates another search's statistics into st, for workload
// aggregation.
func (st *Stats) Add(other Stats) {
	st.EntriesEMR += other.EntriesEMR
	st.EntriesNGR += other.EntriesNGR
	st.EntriesBoundary += other.EntriesBoundary
	st.EntriesInterior += other.EntriesInterior
	st.ReusedEntries += other.ReusedEntries
	st.ForksConsidered += other.ForksConsidered
	st.ForksAbsent += other.ForksAbsent
	st.ForksDominated += other.ForksDominated
	st.ForksGMatrixFiltered += other.ForksGMatrixFiltered
	st.ForksStarted += other.ForksStarted
	st.NodesVisited += other.NodesVisited
	st.EmittedHits += other.EmittedHits
	st.SuppressedEmissions += other.SuppressedEmissions
	st.CopiedEmissions += other.CopiedEmissions
	if other.MaxDepth > st.MaxDepth {
		st.MaxDepth = other.MaxDepth
	}
	st.Threshold = other.Threshold
	st.Q = other.Q
	st.Lmax = other.Lmax
}
