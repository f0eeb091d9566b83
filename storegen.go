package alae

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/seq"
)

// The generational store: append, delete and compact without a full
// rebuild, every mutation crash-safe. The paper's §2.2 model assumes a
// frozen concatenation T = T1 # T2 # … # Tn; a serving deployment does
// not — records arrive and retire continuously while a daemon keeps
// the store resident for days. So a Store is now an ordered list of
// immutable GENERATIONS, each a cohort of members with ONE monolithic
// index over its concatenation (shards are work partitions of that
// index at search time, not separate texts — see storesession.go):
//
//   - Append builds a small fresh generation over just the new records
//     (fast — a few MB of index, not the whole database) and adds it
//     to the end of the list.
//   - Delete flips tombstone bits. The dead member's bytes stay in its
//     generation's index, but the gather drops its hits, SampleQuery
//     skips it, and the live directory (Sequences) no longer lists it.
//   - Compact merges tombstone-carrying and small generations into one
//     rebuilt generation LSM-style, purging dead members' bytes.
//
// Searches see an immutable VIEW (generation list + tombstones + the
// live directory) swapped atomically by each mutation, so readers are
// never torn across a mutation, and the threshold of every search is
// still derived once from the WHOLE logical store's (n, σ) — the live
// concatenation's — exactly as the sharding layer pins it (PR 5's
// invariant, extended across generations). Each view carries a
// mutation stamp; the query cache keys on it, so a mutation strands
// exactly the stale entries instead of returning pre-mutation answers.
//
// Durability: a directory-backed store (LoadStoreFile on a directory,
// or SaveDir) publishes every mutation as temp-write + fsync + atomic
// rename — generation files first, then the manifest, which is the
// commit point. A crash at ANY step leaves a directory that loads as
// either the pre- or the post-mutation store, never a torn one;
// orphaned generation files and leftover temp files are swept on load.

// byteMask is a 256-bit presence set over byte values: which bytes a
// member sequence contains. Masks are what let a mutation recompute
// the live alphabet size σ without rescanning any text.
type byteMask [4]uint64

func (m *byteMask) add(b byte) { m[b>>6] |= 1 << (b & 63) }

func (m *byteMask) or(o byteMask) {
	for i := range m {
		m[i] |= o[i]
	}
}

func (m byteMask) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

func maskOf(s []byte) byteMask {
	var m byteMask
	for _, b := range s {
		m.add(b)
	}
	return m
}

// generation is one immutable cohort of members: its own directory,
// one index over its concatenation and per-member byte masks, plus the
// tombstone flags. Mutations never modify a generation in place —
// Delete publishes a copy with new tombstone flags sharing everything
// else.
type generation struct {
	id    uint64
	tab   *seq.Table // ALL the generation's members, tombstoned included
	ix    *Index     // one index over the generation's concatenation
	masks []byteMask // per-member byte presence
	dead  []bool     // tombstone flags; nil when none
	ndead int
}

func (g *generation) isDead(m int) bool { return g.dead != nil && g.dead[m] }

// withTombstones returns a copy of g carrying the given tombstone
// flags, sharing the directory, index and masks.
func (g *generation) withTombstones(dead []bool, ndead int) *generation {
	return &generation{id: g.id, tab: g.tab, ix: g.ix, masks: g.masks, dead: dead, ndead: ndead}
}

// liveBytes is the generation's contribution to the logical store:
// the summed length of its live members.
func (g *generation) liveBytes() int {
	n := 0
	for m := 0; m < g.tab.Len(); m++ {
		if !g.isDead(m) {
			n += g.tab.SeqLen(m)
		}
	}
	return n
}

// memberBytes copies member m's sequence out of the generation's text
// (compaction rebuilds merged generations from these).
func (g *generation) memberBytes(m int) []byte {
	start := g.tab.Start(m)
	return append([]byte(nil), g.ix.Text()[start:start+g.tab.SeqLen(m)]...)
}

// buildGeneration builds ONE index over the records' separator-framed
// concatenation. There is deliberately no shard count here any more:
// shards are work partitions of this one index at search time
// (work-stealing lanes, storesession.go), so the on-disk and in-memory
// layout is always the monolithic one the paper's §2.2 model assumes,
// whatever parallelism later searches pick.
func buildGeneration(id uint64, records []SeqRecord) *generation {
	masks := make([]byteMask, len(records))
	recs := make([]seq.Record, len(records))
	for i, r := range records {
		masks[i] = maskOf(r.Seq)
		recs[i] = seq.Record{Header: r.Name, Seq: r.Seq}
	}
	col := seq.NewCollection(recs)
	// The generation index carries the member separator as a hard
	// barrier: the exact engines never descend a separator edge, so no
	// hit can bridge two members (the gather additionally rejects
	// separator-row hits and, as a backstop, hits provably too long for
	// their member — storesession.go).
	return &generation{id: id, tab: col.Table(), ix: newBarrierIndex(col.Text(), seq.Separator), masks: masks}
}

// genLoc places a live member: which generation, which member within
// it.
type genLoc struct{ gen, member int }

// storeView is one immutable snapshot of the logical store. Every
// mutation builds a new view and swaps it in atomically; searches,
// sessions and the query cache all work against a captured view, so a
// reader is never torn across a mutation.
type storeView struct {
	stamp uint64        // mutation stamp; the query cache keys on it
	gens  []*generation // in logical (member-order) sequence
	seqs  *seq.Table    // the LIVE members' global directory
	sigma int           // distinct bytes of the live concatenation
	loc   []genLoc      // live member -> (generation, member within it)
	live  [][]int       // per generation: member -> live index, or -1 when tombstoned
}

// buildView derives the live directory, alphabet and member mappings
// from a generation list. Live members are numbered generation by
// generation, each generation's in text order: the store's gather
// relies on it (draining the generations in this order appends hits in
// ascending global TEnd — storesession.go). It fails on a store with no
// live members — a Store, like NewStore, always holds at least one
// sequence.
func buildView(gens []*generation, stamp uint64) (*storeView, error) {
	v := &storeView{stamp: stamp, gens: gens}
	var names []string
	var lengths []int
	var mask byteMask
	for gi, g := range gens {
		liveIdx := make([]int, g.tab.Len())
		for m := 0; m < g.tab.Len(); m++ {
			if g.isDead(m) {
				liveIdx[m] = -1
				continue
			}
			liveIdx[m] = len(names)
			v.loc = append(v.loc, genLoc{gi, m})
			names = append(names, g.tab.Name(m))
			lengths = append(lengths, g.tab.SeqLen(m))
			mask.or(g.masks[m])
		}
		v.live = append(v.live, liveIdx)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("alae: store has no live members")
	}
	if len(names) > 1 {
		mask.add(seq.Separator)
	}
	v.seqs = seq.NewTable(names, lengths)
	v.sigma = mask.count()
	return v, nil
}

// currentView returns the serving snapshot.
func (st *Store) currentView() *storeView { return st.view.Load() }

// Generations reports how many generations the store currently holds
// (1 until the first Append; compaction merges them back down).
func (st *Store) Generations() int { return len(st.currentView().gens) }

// Tombstones reports how many members are tombstoned — deleted but not
// yet purged by compaction.
func (st *Store) Tombstones() int {
	n := 0
	for _, g := range st.currentView().gens {
		n += g.ndead
	}
	return n
}

// Stamp returns the store's mutation stamp: it increases by one on
// every published Append/Delete/Compact, and two results carry the
// same logical store state only if their stamps match. The query cache
// keys on it.
func (st *Store) Stamp() uint64 { return st.currentView().stamp }

// Dir returns the backing directory mutations persist to, or "" for a
// memory-only store (see SaveDir).
func (st *Store) Dir() string { return st.dir }

// validateRecords rejects member sequences containing the separator
// byte: such a record would break the concatenation framing — Locate
// would misattribute every hit after the stray separator — so it is an
// ingestion bug diagnosed at the boundary, not indexed wrongly.
func validateRecords(records []SeqRecord) error {
	for i, r := range records {
		if j := bytes.IndexByte(r.Seq, seq.Separator); j >= 0 {
			return fmt.Errorf("alae: record %d (%q) contains the member separator %q at byte %d; records must be single sequences with no separator bytes",
				i, r.Name, seq.Separator, j)
		}
	}
	return nil
}

// Append adds records to the store as one fresh generation — a small
// index built over just the new records, not a rebuild of the world.
// The new members join the end of the logical concatenation, so
// existing members keep their coordinates. On a directory-backed store
// the mutation is crash-safe: the generation file lands first, then
// the manifest commit; a crash between them leaves the pre-append
// store (the orphaned generation file is swept on the next load).
func (st *Store) Append(records []SeqRecord) error {
	if len(records) == 0 {
		return fmt.Errorf("alae: Append needs at least one record")
	}
	if err := validateRecords(records); err != nil {
		return err
	}
	st.mutMu.Lock()
	defer st.mutMu.Unlock()
	cur := st.currentView()
	g := buildGeneration(st.nextGenID, records)
	gens := append(slices.Clip(slices.Clone(cur.gens)), g)
	next, err := buildView(gens, cur.stamp+1)
	if err != nil {
		return err
	}
	if err := st.persistMutation(next, []*generation{g}, nil); err != nil {
		return err
	}
	st.nextGenID++
	st.view.Store(next)
	return nil
}

// Delete tombstones every live member whose name matches one of names
// and reports how many members it retired. The members' bytes stay in
// their generations' indexes until a compaction purges them, but they
// produce no hits, disappear from Sequences, and stop contributing to
// threshold derivation immediately. Deleting nothing is not an error
// (0, nil); deleting the last live member is (a store always holds at
// least one sequence). On a directory-backed store the tombstone flush
// is one atomic manifest rewrite.
func (st *Store) Delete(names ...string) (int, error) {
	doomed := make(map[string]bool, len(names))
	for _, n := range names {
		doomed[n] = true
	}
	st.mutMu.Lock()
	defer st.mutMu.Unlock()
	cur := st.currentView()
	gens := slices.Clone(cur.gens)
	deleted, liveLeft := 0, 0
	for gi, g := range gens {
		var dead []bool
		nd := g.ndead
		for m := 0; m < g.tab.Len(); m++ {
			if g.isDead(m) {
				continue
			}
			if doomed[g.tab.Name(m)] {
				if dead == nil {
					if g.dead != nil {
						dead = slices.Clone(g.dead)
					} else {
						dead = make([]bool, g.tab.Len())
					}
				}
				dead[m] = true
				nd++
				deleted++
			} else {
				liveLeft++
			}
		}
		if dead != nil {
			gens[gi] = g.withTombstones(dead, nd)
		}
	}
	if deleted == 0 {
		return 0, nil
	}
	if liveLeft == 0 {
		return 0, fmt.Errorf("alae: deleting %s would leave the store with no live members", strings.Join(names, ", "))
	}
	next, err := buildView(gens, cur.stamp+1)
	if err != nil {
		return 0, err
	}
	if err := st.persistMutation(next, nil, nil); err != nil {
		return 0, err
	}
	st.view.Store(next)
	return deleted, nil
}

// CompactStats reports what one compaction pass did.
type CompactStats struct {
	Before        int // generations before the pass
	After         int // generations after the pass
	PurgedMembers int // tombstoned members whose bytes were dropped
	PurgedBytes   int // their summed sequence length
}

// Compact merges generations LSM-style and purges tombstones: every
// generation carrying tombstones is rewritten (that is the only way to
// drop a dead member's bytes), small generations — under half the
// largest generation's live bytes — fold into the merge so appends do
// not accumulate an unbounded tail of tiny indexes, and when more than
// four generations exist everything but the largest is folded. Clean
// big generations are left alone. The merged generation keeps the live
// members in their current order, so the logical concatenation — and
// with it every global coordinate and the search threshold — is
// unchanged by compaction. A pass with nothing to do is a no-op that
// does not bump the mutation stamp. On a directory-backed store the
// pass is crash-safe: merged generation file, then manifest commit,
// then best-effort removal of the superseded files (leftovers are
// swept on the next load).
func (st *Store) Compact() (CompactStats, error) {
	st.mutMu.Lock()
	defer st.mutMu.Unlock()
	cur := st.currentView()
	cs := CompactStats{Before: len(cur.gens), After: len(cur.gens)}
	victims := compactionVictims(cur.gens)
	if len(victims) == 0 {
		return cs, nil
	}
	isVictim := make(map[int]bool, len(victims))
	for _, gi := range victims {
		isVictim[gi] = true
	}
	var recs []SeqRecord
	for _, gi := range victims {
		g := cur.gens[gi]
		for m := 0; m < g.tab.Len(); m++ {
			if g.isDead(m) {
				cs.PurgedMembers++
				cs.PurgedBytes += g.tab.SeqLen(m)
				continue
			}
			recs = append(recs, SeqRecord{Name: g.tab.Name(m), Seq: g.memberBytes(m)})
		}
	}
	var merged *generation
	if len(recs) > 0 {
		merged = buildGeneration(st.nextGenID, recs)
	}
	// The merged generation takes the first victim's position, so the
	// surviving live order is exactly the pre-compaction live order.
	gens := make([]*generation, 0, len(cur.gens)-len(victims)+1)
	for gi, g := range cur.gens {
		if isVictim[gi] {
			if gi == victims[0] && merged != nil {
				gens = append(gens, merged)
			}
			continue
		}
		gens = append(gens, g)
	}
	next, err := buildView(gens, cur.stamp+1)
	if err != nil {
		return cs, err
	}
	var write []*generation
	if merged != nil {
		write = append(write, merged)
	}
	removed := make([]uint64, len(victims))
	for i, gi := range victims {
		removed[i] = cur.gens[gi].id
	}
	if err := st.persistMutation(next, write, removed); err != nil {
		return cs, err
	}
	if merged != nil {
		st.nextGenID++
	}
	st.view.Store(next)
	cs.After = len(gens)
	return cs, nil
}

// compactionVictims picks which generations a compaction pass merges.
// Tombstone carriers are always victims; generations under half the
// largest generation's live bytes fold in alongside; and past four
// generations everything but the largest folds, bounding the scatter
// fan-out a long append history can build up. A single clean victim
// with nothing to purge is no work at all, so it is left alone.
func compactionVictims(gens []*generation) []int {
	if len(gens) == 0 {
		return nil
	}
	maxLive, biggest := -1, 0
	for gi, g := range gens {
		if lb := g.liveBytes(); lb > maxLive {
			maxLive, biggest = lb, gi
		}
	}
	foldAll := len(gens) > 4
	var victims []int
	tomb := false
	for gi, g := range gens {
		if g.ndead > 0 || 2*g.liveBytes() < maxLive || (foldAll && gi != biggest) {
			victims = append(victims, gi)
			tomb = tomb || g.ndead > 0
		}
	}
	if !tomb && len(victims) < 2 {
		return nil
	}
	return victims
}

// ---------------------------------------------------------------------
// Directory persistence: the generation manifest.

// manifestName is the commit record of a directory-backed store: which
// generation files are current and which members are tombstoned. It is
// always replaced by atomic rename, so it is the mutation commit point.
const manifestName = "MANIFEST"

var manifestMagic = [8]byte{'A', 'L', 'A', 'E', 'M', 'A', 'N', 'F'}

const manifestVersion uint32 = 1

// genFileName names generation id's file within a store directory.
func genFileName(id uint64) string { return fmt.Sprintf("gen-%08d.alae", id) }

// storeFSHook is the failure-injection seam of the mutation
// persistence path: when set (tests only), it runs after every durable
// step — temp created, temp written, temp synced, renamed into place,
// superseded file removed — with the step name and the file involved.
// The crash matrix snapshots the directory at each step (the on-disk
// state a crash there would leave) and asserts every snapshot reloads
// as the pre- or post-mutation store; returning an error aborts the
// mutation at that step, exercising the clean failure paths.
// Production code never sets it.
var storeFSHook func(step, path string) error

func fsStep(step, path string) error {
	if storeFSHook != nil {
		return storeFSHook(step, path)
	}
	return nil
}

// persistMutation writes one mutation's durable footprint to the
// backing directory (no-op for memory-only stores): new generation
// files first, then the manifest — the commit point — then best-effort
// removal of superseded generation files. An interruption before the
// manifest rename leaves the previous store plus debris the next load
// sweeps; after it, the new store plus debris. Never a torn state.
func (st *Store) persistMutation(next *storeView, write []*generation, removed []uint64) error {
	if st.dir == "" {
		return nil
	}
	for _, g := range write {
		if err := writeGenerationFile(st.dir, g); err != nil {
			return err
		}
	}
	if err := writeManifest(st.dir, next); err != nil {
		return err
	}
	for _, id := range removed {
		path := filepath.Join(st.dir, genFileName(id))
		os.Remove(path)
		fsStep("gen-removed", path) // post-commit: outcome cannot abort the mutation
	}
	return nil
}

// writeGenerationFile publishes one generation as a single-generation
// store file. Tombstones are NOT written here — in the directory
// layout the manifest owns them, so a delete is one small manifest
// rewrite instead of a generation rewrite.
func writeGenerationFile(dir string, g *generation) error {
	clean := g
	if g.dead != nil {
		clean = g.withTombstones(nil, 0)
	}
	return atomicWriteFile(filepath.Join(dir, genFileName(g.id)), func(w io.Writer) error {
		return saveGenerations(w, []*generation{clean}, 0)
	})
}

// writeManifest publishes the commit record for view v.
func writeManifest(dir string, v *storeView) error {
	return atomicWriteFile(filepath.Join(dir, manifestName), func(w io.Writer) error {
		bw := newByteWriter(w)
		bw.bytes(manifestMagic[:])
		bw.u32(manifestVersion)
		bw.u64(v.stamp)
		bw.u64(uint64(len(v.gens)))
		for _, g := range v.gens {
			bw.u64(g.id)
			bw.u64(uint64(g.tab.Len()))
			bw.u64(uint64(g.ndead))
			for m := 0; m < g.tab.Len(); m++ {
				if g.isDead(m) {
					bw.u64(uint64(m))
				}
			}
		}
		return bw.flush()
	})
}

// manifestGen is one generation's manifest entry.
type manifestGen struct {
	id      uint64
	members int
	dead    []int
}

// readManifest parses and validates a manifest file.
func readManifest(path string) (stamp uint64, gens []manifestGen, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, fmt.Errorf("alae: reading store manifest: %w", err)
	}
	br := newByteReader(data)
	var magic [8]byte
	br.bytes(magic[:])
	if br.err == nil && magic != manifestMagic {
		return 0, nil, fmt.Errorf("alae: not a store manifest (bad magic %q)", magic[:])
	}
	if v := br.u32(); br.err == nil && v != manifestVersion {
		return 0, nil, fmt.Errorf("alae: unsupported store manifest version %d (this build reads version %d)", v, manifestVersion)
	}
	stamp = br.u64()
	count := br.u64()
	if br.err == nil && count > maxStoreMembers {
		return 0, nil, fmt.Errorf("alae: implausible manifest generation count %d", count)
	}
	seen := make(map[uint64]bool)
	for i := uint64(0); i < count && br.err == nil; i++ {
		var g manifestGen
		g.id = br.u64()
		if br.err == nil && seen[g.id] {
			return 0, nil, fmt.Errorf("alae: manifest lists generation %d twice", g.id)
		}
		seen[g.id] = true
		members := br.u64()
		if br.err == nil && members > maxStoreMembers {
			return 0, nil, fmt.Errorf("alae: implausible manifest member count %d", members)
		}
		g.members = int(members)
		tombs := br.u64()
		if br.err == nil && tombs > members {
			return 0, nil, fmt.Errorf("alae: manifest generation %d tombstones %d of %d members", g.id, tombs, members)
		}
		last := -1
		for t := uint64(0); t < tombs && br.err == nil; t++ {
			m := br.u64()
			if br.err != nil {
				break
			}
			if m >= members || int(m) <= last {
				return 0, nil, fmt.Errorf("alae: manifest generation %d has an invalid tombstone index %d", g.id, m)
			}
			last = int(m)
			g.dead = append(g.dead, int(m))
		}
		gens = append(gens, g)
	}
	if br.err != nil {
		return 0, nil, fmt.Errorf("alae: reading store manifest: %w", br.err)
	}
	if len(gens) == 0 {
		return 0, nil, fmt.Errorf("alae: store manifest lists no generations")
	}
	return stamp, gens, nil
}

// StoreDirStamp reads the mutation stamp of a directory-backed store
// from its manifest alone, without loading any generation index. A
// serving daemon's reload job polls this: when the stamp matches the
// store it is already serving, the (expensive) reload is skipped —
// the manifest rename is the commit point of every mutation, so an
// unchanged stamp means an unchanged store.
func StoreDirStamp(dir string) (uint64, error) {
	stamp, _, err := readManifest(filepath.Join(dir, manifestName))
	return stamp, err
}

// loadStoreDir loads a directory-backed store: manifest, then each
// generation file it references, with the manifest's tombstones
// overlaid. Debris from interrupted mutations — generation files the
// manifest does not reference, leftover temp files — is swept after a
// successful load.
func loadStoreDir(dir string, opts StoreOptions) (*Store, error) {
	stamp, entries, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	gens := make([]*generation, len(entries))
	keep := make(map[string]bool, len(entries)+1)
	for i, e := range entries {
		name := genFileName(e.id)
		keep[name] = true
		g, err := loadGenerationFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("alae: store generation %d: %w", e.id, err)
		}
		if g.id != e.id {
			return nil, fmt.Errorf("alae: generation file %s holds generation %d", name, g.id)
		}
		if g.tab.Len() != e.members {
			return nil, fmt.Errorf("alae: generation %d has %d members, manifest says %d", e.id, g.tab.Len(), e.members)
		}
		if len(e.dead) > 0 {
			dead := make([]bool, g.tab.Len())
			for _, m := range e.dead {
				dead[m] = true
			}
			g = g.withTombstones(dead, len(e.dead))
		}
		gens[i] = g
	}
	st, err := newStoreFromGens(gens, stamp, opts)
	if err != nil {
		return nil, err
	}
	st.dir = dir
	sweepStoreDir(dir, keep)
	return st, nil
}

// loadGenerationFile reads one generation file (a single-generation
// store file).
func loadGenerationFile(path string) (*generation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gens, _, err := loadGenerations(f)
	if err != nil {
		return nil, err
	}
	if len(gens) != 1 {
		return nil, fmt.Errorf("holds %d generations, want exactly 1", len(gens))
	}
	return gens[0], nil
}

// sweepStoreDir removes the debris an interrupted mutation can leave:
// generation files the manifest no longer (or does not yet) reference
// and temp files that never got renamed. Only files matching the
// store's own naming patterns are touched; removal is best-effort —
// sweeping is hygiene, not correctness, because the loader never reads
// unreferenced files in the first place.
func sweepStoreDir(dir string, keep map[string]bool) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || name == manifestName || keep[name] {
			continue
		}
		orphanGen := strings.HasPrefix(name, "gen-") && strings.HasSuffix(name, ".alae")
		leftoverTemp := strings.Contains(name, ".tmp-")
		if orphanGen || leftoverTemp {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// SaveDir writes the store as a generation directory — one file per
// generation plus the manifest — and attaches the store to it: every
// later Append/Delete/Compact persists there crash-safely. This is the
// durable layout for mutable serving stores; SaveFile remains the
// one-file snapshot.
func (st *Store) SaveDir(dir string) error {
	st.mutMu.Lock()
	defer st.mutMu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("alae: creating store directory: %w", err)
	}
	v := st.currentView()
	keep := make(map[string]bool, len(v.gens)+1)
	for _, g := range v.gens {
		if err := writeGenerationFile(dir, g); err != nil {
			return err
		}
		keep[genFileName(g.id)] = true
	}
	if err := writeManifest(dir, v); err != nil {
		return err
	}
	st.dir = dir
	sweepStoreDir(dir, keep)
	return nil
}
