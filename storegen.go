package alae

import (
	"bufio"
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
// index over its concatenation (a search's workers share out that
// index's resolved work, not separate texts — see storesession.go):
//
//   - Append builds a small fresh generation over just the new records
//     (fast — a few MB of index, not the whole database) and adds it
//     to the end of the list.
//   - Delete flips tombstone bits. The dead member's bytes stay in its
//     generation's index, but the gather drops its hits, SampleQuery
//     skips it, and the live directory (Sequences) no longer lists it.
//   - Compact merges each run of adjacent tombstone-carrying and small
//     generations into one rebuilt generation LSM-style, purging dead
//     members' bytes.
//
// Searches see an immutable VIEW (generation list + tombstones + the
// live directory) swapped atomically by each mutation, so readers are
// never torn across a mutation, and the threshold of every search is
// still derived once from the WHOLE logical store's (n, σ) — the live
// concatenation's — exactly as a monolithic index over it would. Each
// view carries a mutation stamp; the query cache keys on it, so a
// mutation strands exactly the stale entries instead of returning
// pre-mutation answers.
//
// Durability: a directory-backed store (LoadStoreFile on a directory,
// or SaveDir) publishes every mutation as temp-write + fsync + atomic
// rename — generation files first, then the manifest, which is the
// commit point. A crash at ANY step leaves a directory that loads as
// either the pre- or the post-mutation store, never a torn one. Loads
// only read: the orphaned generation files and leftover temp files a
// crash leaves are swept by the next writer, right after its commit.

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
// concatenation. There is deliberately no partition count here: a
// search's workers share out this one index's resolved work
// (storesession.go), so the on-disk and in-memory layout is always the
// monolithic one the paper's §2.2 model assumes, whatever parallelism
// later searches pick.
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
// store (the orphaned generation file is swept by the next mutation).
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
	if err := st.persistMutation(next, []*generation{g}); err != nil {
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
	if err := st.persistMutation(next, nil); err != nil {
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

// Compact merges generations LSM-style and purges tombstones. The
// victims are every generation carrying tombstones (rewriting it is
// the only way to drop a dead member's bytes), small generations —
// under half the largest generation's live bytes — so appends do not
// accumulate an unbounded tail of tiny indexes, and, when more than
// four generations exist, everything but the largest. Each maximal run
// of adjacent victims merges into one generation in the run's own
// place, so the live members keep their order — and with it every
// global coordinate and the search threshold. A run of one clean
// generation has nothing to rewrite and is left alone, as are clean
// big generations; past four generations, at most three remain. A pass
// with nothing to do is a no-op that does not bump the mutation stamp.
// On a directory-backed store the pass is crash-safe: merged
// generation files, then manifest commit, then a best-effort sweep of
// the superseded files.
func (st *Store) Compact() (CompactStats, error) {
	st.mutMu.Lock()
	defer st.mutMu.Unlock()
	cur := st.currentView()
	cs := CompactStats{Before: len(cur.gens), After: len(cur.gens)}
	runs := compactionRuns(cur.gens)
	if len(runs) == 0 {
		return cs, nil
	}
	var gens, merged []*generation
	kept := 0 // cur.gens[kept:] are not yet placed
	for _, run := range runs {
		gens = append(gens, cur.gens[kept:run[0]]...)
		var recs []SeqRecord
		for _, g := range cur.gens[run[0]:run[1]] {
			for m := 0; m < g.tab.Len(); m++ {
				if g.isDead(m) {
					cs.PurgedMembers++
					cs.PurgedBytes += g.tab.SeqLen(m)
					continue
				}
				recs = append(recs, SeqRecord{Name: g.tab.Name(m), Seq: g.memberBytes(m)})
			}
		}
		if len(recs) > 0 {
			g := buildGeneration(st.nextGenID+uint64(len(merged)), recs)
			gens, merged = append(gens, g), append(merged, g)
		}
		kept = run[1]
	}
	gens = append(gens, cur.gens[kept:]...)
	next, err := buildView(gens, cur.stamp+1)
	if err != nil {
		return cs, err
	}
	if err := st.persistMutation(next, merged); err != nil {
		return cs, err
	}
	st.nextGenID += uint64(len(merged))
	st.view.Store(next)
	cs.After = len(gens)
	return cs, nil
}

// compactionRuns picks which generations a compaction pass merges, as
// half-open index ranges [lo, hi) of adjacent victims, in order.
// Tombstone carriers are always victims; generations under half the
// largest generation's live bytes fold in alongside; and past four
// generations everything but the largest folds, bounding the scatter
// fan-out a long append history can build up. A run of one clean
// victim with nothing to purge is no work at all, so it is left out.
func compactionRuns(gens []*generation) [][2]int {
	maxLive, biggest := -1, 0
	for gi, g := range gens {
		if lb := g.liveBytes(); lb > maxLive {
			maxLive, biggest = lb, gi
		}
	}
	foldAll := len(gens) > 4
	victim := func(gi int) bool {
		g := gens[gi]
		return g.ndead > 0 || 2*g.liveBytes() < maxLive || (foldAll && gi != biggest)
	}
	var runs [][2]int
	for lo := 0; lo < len(gens); {
		if !victim(lo) {
			lo++
			continue
		}
		hi := lo + 1
		for hi < len(gens) && victim(hi) {
			hi++
		}
		if hi-lo > 1 || gens[lo].ndead > 0 {
			runs = append(runs, [2]int{lo, hi})
		}
		lo = hi
	}
	return runs
}

// ---------------------------------------------------------------------
// Directory persistence: the generation manifest.

// manifestName is the commit record of a directory-backed store: the
// store file's manifest (writeStoreManifest) with no payloads, naming
// the current generations, their members and the tombstones. It is
// always replaced by atomic rename, so it is the mutation commit point.
const manifestName = "MANIFEST"

// lockName is the writers' lock file of a store directory
// (lockStoreDir). It holds no data and is never swept.
const lockName = "LOCK"

// genFileName names generation id's file within a store directory.
func genFileName(id uint64) string { return fmt.Sprintf("gen-%08d.alae", id) }

// storeFSHook is the failure-injection seam of the mutation
// persistence path: when set (tests only), it runs after every durable
// step — temp created, temp written, temp synced, renamed into place,
// debris swept — with the step name and the file involved.
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
// files, then the manifest — the commit point — then a sweep of the
// files the committed view does not reference. A crash before the
// rename leaves the previous store plus debris, after it the new store
// plus debris; never a torn state. It fails before writing anything
// when another handle has committed since this one loaded, whose
// commit it would otherwise drop. The directory's writer lock spans all
// of it, so a second writer waits for this commit and then fails that
// check.
func (st *Store) persistMutation(next *storeView, write []*generation) error {
	if st.dir == "" {
		return nil
	}
	unlock, err := lockStoreDir(st.dir)
	if err != nil {
		return err
	}
	defer unlock()
	if onDisk, err := StoreDirStamp(st.dir); err != nil {
		return err
	} else if cur := st.currentView().stamp; onDisk != cur {
		return fmt.Errorf("alae: store directory %s is at stamp %d, this store at %d: another handle committed since this one loaded; reload before mutating", st.dir, onDisk, cur)
	}
	for _, g := range write {
		if err := writeGenerationFile(st.dir, g); err != nil {
			return err
		}
	}
	if err := writeManifest(st.dir, next); err != nil {
		return err
	}
	sweepStoreDir(st.dir, next)
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
		return writeStoreManifest(w, v.gens, v.stamp)
	})
}

// readManifest parses and validates a directory's MANIFEST, or only
// its header when headerOnly is set; the old version-1 manifest, with
// its own magic, is rejected by name.
func readManifest(dir string, headerOnly bool) ([]*genManifest, uint64, error) {
	path := filepath.Join(dir, manifestName)
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("alae: reading store manifest: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if magic, _ := br.Peek(8); string(magic) == "ALAEMANF" {
		return nil, 0, fmt.Errorf("alae: %s is a version-1 directory manifest, an old format this build no longer reads; rebuild the store directory", path)
	}
	if headerOnly {
		stamp, err := readStoreHeader(br)
		return nil, stamp, err
	}
	return readStoreManifest(br, nil, fileSize(f))
}

// StoreDirStamp reads the mutation stamp of a directory-backed store
// from its manifest's header alone. A serving daemon's reload job polls
// it and skips the reload while the stamp matches the store it serves:
// the manifest rename commits every mutation.
func StoreDirStamp(dir string) (uint64, error) {
	_, stamp, err := readManifest(dir, true)
	return stamp, err
}

// loadStoreDir loads a directory-backed store: manifest, then each
// generation file it references, checked against the manifest's id,
// member names and lengths, with the manifest's tombstones overlaid.
// It deletes nothing: files the manifest does not reference are never
// read, and the next writer sweeps them.
func loadStoreDir(dir string, opts StoreOptions) (*Store, error) {
	entries, stamp, err := readManifest(dir, false)
	if err != nil {
		return nil, err
	}
	gens := make([]*generation, len(entries))
	for i, e := range entries {
		name := genFileName(e.id)
		g, err := loadGenerationFile(filepath.Join(dir, name), e)
		if err != nil {
			return nil, fmt.Errorf("alae: store generation %d: %w", e.id, err)
		}
		if g.id != e.id || g.tab.Len() != len(e.names) {
			return nil, fmt.Errorf("alae: generation file %s holds generation %d with %d members, manifest says generation %d with %d",
				name, g.id, g.tab.Len(), e.id, len(e.names))
		}
		for m, n := range e.names {
			if g.tab.Name(m) != n || g.tab.SeqLen(m) != e.lengths[m] {
				return nil, fmt.Errorf("alae: generation %d member %d is %q of %d bytes, manifest says %q of %d",
					e.id, m, g.tab.Name(m), g.tab.SeqLen(m), n, e.lengths[m])
			}
		}
		gens[i] = g.withTombstones(e.dead, e.ndead)
	}
	st, err := newStoreFromGens(gens, stamp, opts)
	if err != nil {
		return nil, err
	}
	st.dir = dir
	return st, nil
}

// loadGenerationFile reads one generation file (a single-generation
// store file); want is the MANIFEST's entry for it, whose decoded names
// the file's equal names reuse.
func loadGenerationFile(path string, want *genManifest) (*generation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gens, _, err := loadGenerations(f, want, fileSize(f))
	if err != nil {
		return nil, err
	}
	if len(gens) != 1 {
		return nil, fmt.Errorf("holds %d generations, want exactly 1", len(gens))
	}
	return gens[0], nil
}

// fileSize is f's length in bytes, or -1 when it cannot be read.
func fileSize(f *os.File) int64 {
	if fi, err := f.Stat(); err == nil {
		return fi.Size()
	}
	return -1
}

// sweepStoreDir removes the debris interrupted mutations leave: the
// generation files view v does not reference, and temp files. Only a
// writer calls it, right after committing v — a reader cannot tell a
// crash's debris from the generation file a concurrent writer is about
// to commit. Removal is best-effort hygiene: the loader never reads
// unreferenced files.
func sweepStoreDir(dir string, v *storeView) {
	keep := make(map[string]bool, len(v.gens))
	for _, g := range v.gens {
		keep[genFileName(g.id)] = true
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || keep[name] {
			continue
		}
		orphanGen := strings.HasPrefix(name, "gen-") && strings.HasSuffix(name, ".alae")
		if orphanGen || strings.Contains(name, ".tmp-") {
			path := filepath.Join(dir, name)
			os.Remove(path)
			fsStep("swept", path) // post-commit: outcome cannot abort the mutation
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
	unlock, err := lockStoreDir(dir)
	if err != nil {
		return err
	}
	defer unlock()
	v := st.currentView()
	for _, g := range v.gens {
		if err := writeGenerationFile(dir, g); err != nil {
			return err
		}
	}
	if err := writeManifest(dir, v); err != nil {
		return err
	}
	st.dir = dir
	sweepStoreDir(dir, v)
	return nil
}
