package alae

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/seq"
)

// Generational-store acceptance tests: mutations must be invisible to
// the search semantics (a mutated store answers exactly like a fresh
// store built over its live members), tombstones must suppress hits
// immediately, compaction must never change answers, and the query
// cache must never serve a pre-mutation result.

// storeHits runs queries against st with opts and returns the results,
// failing the test on any error.
func storeHits(t *testing.T, st *Store, queries [][]byte, opts SearchOptions) []*StoreResult {
	t.Helper()
	out := make([]*StoreResult, len(queries))
	for i, q := range queries {
		res, err := st.Search(q, opts)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		out[i] = res
	}
	return out
}

// storeResultsEqual compares thresholds and full SeqHit slices.
func storeResultsEqual(a, b []*StoreResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Threshold != b[i].Threshold || !seqHitsEqual(a[i].Hits, b[i].Hits) {
			return false
		}
	}
	return true
}

// mutatedStore builds the canonical mutation scenario used across the
// generational tests: a base store over members 0–3, two appends
// (members 4–5, then 6), and a delete of members 1 and 5. The live set
// is {0, 2, 3, 4, 6}, spread over three generations with tombstones in
// two of them.
func mutatedStore(t *testing.T, wl storeWorkload, opts StoreOptions) (*Store, []SeqRecord) {
	t.Helper()
	st, err := NewStore(wl.records[:4], opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(wl.records[4:6]); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(wl.records[6:7]); err != nil {
		t.Fatal(err)
	}
	if n, err := st.Delete(wl.records[1].Name, wl.records[5].Name); err != nil || n != 2 {
		t.Fatalf("Delete = (%d, %v), want (2, nil)", n, err)
	}
	live := []SeqRecord{wl.records[0], wl.records[2], wl.records[3], wl.records[4], wl.records[6]}
	return st, live
}

// TestStoreGenerationalParity is the tentpole acceptance gate: a store
// that grew through appends and deletes answers every query exactly
// like a fresh store built over its live members — same thresholds
// (derived from the live concatenation's (n, σ), PR 5's invariant
// extended across generations), same hit sets byte for byte, same
// member numbering — and compaction changes none of it.
func TestStoreGenerationalParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts SearchOptions
	}{
		{"threshold", SearchOptions{}},
		{"evalue", SearchOptions{EValue: 1e-5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wl := buildStoreWorkload(seq.DNA, 7, 1200, 150, 914)
			st, live := mutatedStore(t, wl, StoreOptions{})
			if g := st.Generations(); g != 3 {
				t.Fatalf("Generations() = %d, want 3", g)
			}
			if n := st.Tombstones(); n != 2 {
				t.Fatalf("Tombstones() = %d, want 2", n)
			}
			fresh, err := NewStore(live, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Sequences().Len() != len(live) || st.Sequences().TotalLen() != fresh.Sequences().TotalLen() {
				t.Fatalf("live directory: %d members / %d bytes, want %d / %d",
					st.Sequences().Len(), st.Sequences().TotalLen(), len(live), fresh.Sequences().TotalLen())
			}
			for i, r := range live {
				if st.Sequences().Name(i) != r.Name {
					t.Fatalf("live member %d is %q, want %q", i, st.Sequences().Name(i), r.Name)
				}
			}
			want := storeHits(t, fresh, wl.queries, tc.opts)
			if len(want[0].Hits) == 0 || len(want[1].Hits) == 0 {
				t.Fatal("vacuous workload: a query hits no live member")
			}
			got := storeHits(t, st, wl.queries, tc.opts)
			if !storeResultsEqual(got, want) {
				t.Fatal("mutated store disagrees with fresh store over its live members")
			}
			stats, err := st.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if stats.PurgedMembers != 2 {
				t.Fatalf("compaction purged %d members, want 2", stats.PurgedMembers)
			}
			if st.Tombstones() != 0 {
				t.Fatalf("tombstones survive compaction: %d", st.Tombstones())
			}
			if !storeResultsEqual(storeHits(t, st, wl.queries, tc.opts), want) {
				t.Fatal("compaction changed answers")
			}
			// A second pass with nothing to purge and one generation must
			// be a no-op that does not bump the stamp.
			before := st.Stamp()
			again, err := st.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if again.Before != again.After || st.Stamp() != before {
				t.Fatalf("idle compaction did work: %+v (stamp %d -> %d)", again, before, st.Stamp())
			}
		})
	}
}

// TestStoreMutationSemantics covers the mutation API's edges: empty
// and separator-carrying appends are rejected, deleting nothing is a
// no-op, deleting everything is refused, appended members are
// searchable immediately, and the stamp tracks every published
// mutation.
func TestStoreMutationSemantics(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 4, 1500, 200, 915)
	st, err := NewStore(wl.records[:2], StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Stamp() != 1 {
		t.Fatalf("fresh store stamp = %d, want 1", st.Stamp())
	}
	if err := st.Append(nil); err == nil {
		t.Fatal("empty Append accepted")
	}
	if err := st.Append([]SeqRecord{{Name: "bad", Seq: []byte("ACGT#ACGT")}}); err == nil {
		t.Fatal("separator-carrying record accepted by Append")
	}
	if _, err := NewStore([]SeqRecord{{Name: "bad", Seq: []byte("AC#GT")}}, StoreOptions{}); err == nil {
		t.Fatal("separator-carrying record accepted by NewStore")
	}
	if n, err := st.Delete("no-such-member"); n != 0 || err != nil {
		t.Fatalf("Delete of absent member = (%d, %v), want (0, nil)", n, err)
	}
	if st.Stamp() != 1 {
		t.Fatalf("no-op mutations moved the stamp to %d", st.Stamp())
	}
	if _, err := st.Delete(wl.records[0].Name, wl.records[1].Name); err == nil {
		t.Fatal("deleting every live member accepted")
	}
	if err := st.Append(wl.records[2:3]); err != nil {
		t.Fatal(err)
	}
	if st.Stamp() != 2 {
		t.Fatalf("stamp after append = %d, want 2", st.Stamp())
	}
	// The appended member must hit immediately: search its own prefix.
	probe := append([]byte(nil), wl.records[2].Seq[:200]...)
	res, err := st.Search(probe, SearchOptions{Threshold: 150})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range res.Hits {
		found = found || h.Name == wl.records[2].Name
	}
	if !found {
		t.Fatal("appended member invisible to search")
	}
	// Deleting it must silence it immediately, same probe.
	if n, err := st.Delete(wl.records[2].Name); n != 1 || err != nil {
		t.Fatalf("Delete = (%d, %v), want (1, nil)", n, err)
	}
	res, err = st.Search(probe, SearchOptions{Threshold: 150})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Hits {
		if h.Name == wl.records[2].Name {
			t.Fatal("tombstoned member still produces hits")
		}
	}
	// SampleQuery must never sample a tombstoned member: delete the
	// longest member and check the probe comes from a live one.
	if q := st.SampleQuery(64); bytes.Contains(wl.records[2].Seq, q) &&
		!bytes.Contains(wl.records[0].Seq, q) && !bytes.Contains(wl.records[1].Seq, q) {
		t.Fatal("SampleQuery drew from a tombstoned member")
	}
}

// TestStoreMutationInvalidatesCache is the generation-stamp gate: a
// cached result must never be served after a mutation changed what the
// right answer is.
func TestStoreMutationInvalidatesCache(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 4, 1500, 200, 916)
	st, err := NewStore(wl.records, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	query := wl.queries[0]
	first, err := st.Search(query, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := st.Search(query, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cached.Stats.QueryCacheHits != 1 {
		t.Fatal("repeat against the unmutated store missed the cache")
	}
	// Delete a member the query hits, so the cached answer is now
	// WRONG, not merely stale-but-equal.
	victim := ""
	for _, h := range first.Hits {
		if h.Name != wl.records[0].Name {
			victim = h.Name
			break
		}
	}
	if victim == "" {
		t.Fatal("workload query hits only one member; cannot stage the scenario")
	}
	if _, err := st.Delete(victim); err != nil {
		t.Fatal(err)
	}
	after, err := st.Search(query, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats.QueryCacheHits != 0 {
		t.Fatal("post-mutation search was served from the pre-mutation cache")
	}
	for _, h := range after.Hits {
		if h.Name == victim {
			t.Fatal("post-mutation result still carries the deleted member")
		}
	}
	if seqHitsEqual(first.Hits, after.Hits) {
		t.Fatal("scenario vacuous: deletion did not change the answer")
	}
	// The post-mutation result is itself cacheable under the new stamp.
	repeat, err := st.Search(query, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if repeat.Stats.QueryCacheHits != 1 || !seqHitsEqual(repeat.Hits, after.Hits) {
		t.Fatal("post-mutation repeat not served from the re-stamped cache")
	}
}

// TestStoreMutatedRoundTrip: both persistence layouts — the one-file
// snapshot (Save/SaveFile, with tombstone flags) and the generation
// directory (SaveDir, with the manifest owning tombstones) — must
// round-trip a mutated multi-generation store answer-for-answer, stamp
// included.
func TestStoreMutatedRoundTrip(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 7, 1500, 200, 917)
	st, _ := mutatedStore(t, wl, StoreOptions{})
	want := storeHits(t, st, wl.queries, SearchOptions{})

	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fromFile, err := LoadStore(bytes.NewReader(buf.Bytes()), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.Stamp() != st.Stamp() || fromFile.Generations() != st.Generations() || fromFile.Tombstones() != st.Tombstones() {
		t.Fatalf("snapshot round-trip: stamp/gens/tombs = %d/%d/%d, want %d/%d/%d",
			fromFile.Stamp(), fromFile.Generations(), fromFile.Tombstones(),
			st.Stamp(), st.Generations(), st.Tombstones())
	}
	if !storeResultsEqual(storeHits(t, fromFile, wl.queries, SearchOptions{}), want) {
		t.Fatal("snapshot round-trip changed answers")
	}

	dir := filepath.Join(t.TempDir(), "db")
	if err := st.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	fromDir, err := LoadStoreFile(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fromDir.Dir() != dir {
		t.Fatalf("loaded store not attached to its directory (%q)", fromDir.Dir())
	}
	if fromDir.Stamp() != st.Stamp() || fromDir.Tombstones() != st.Tombstones() {
		t.Fatalf("directory round-trip lost state: stamp %d tombs %d", fromDir.Stamp(), fromDir.Tombstones())
	}
	if !storeResultsEqual(storeHits(t, fromDir, wl.queries, SearchOptions{}), want) {
		t.Fatal("directory round-trip changed answers")
	}
	// Mutations against the RELOADED store must persist and reload too:
	// compact, then load a third copy and compare.
	if _, err := fromDir.Compact(); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadStoreFile(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Tombstones() != 0 {
		t.Fatalf("compaction's persisted state still has %d tombstones", reloaded.Tombstones())
	}
	if !storeResultsEqual(storeHits(t, reloaded, wl.queries, SearchOptions{}), want) {
		t.Fatal("persisted compaction changed answers")
	}
}

// TestStoreMutateWhileSearching races concurrent searches against the
// full mutation lifecycle. Every search must come back either as a
// pre-mutation answer or a post-mutation answer — never an error,
// never a torn hybrid (asserted by checking hits only name members
// that were live in SOME published view).
func TestStoreMutateWhileSearching(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 6, 1200, 200, 918)
	st, err := NewStore(wl.records[:4], StoreOptions{QueryCacheSize: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := wl.queries[w%len(wl.queries)]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := st.Search(q, SearchOptions{})
				if err != nil {
					t.Errorf("worker %d search %d: %v", w, i, err)
					return
				}
				for _, h := range res.Hits {
					if h.Name == "" {
						t.Errorf("worker %d: hit with empty member name", w)
						return
					}
				}
			}
		}(w)
	}
	for round := 0; round < 3; round++ {
		if err := st.Append([]SeqRecord{wl.records[4], wl.records[5]}); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Delete(wl.records[4].Name, wl.records[5].Name); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestStoreMutateWhileSearchAll races SearchAll batches — whose every
// query's fork families are pulled by several workers over the shared
// index (Parallelism 3) — against the full mutation lifecycle. The
// batch contract under mutation: each result is a complete answer from
// SOME published view (no errors, no torn hybrids, hits in strict
// (TEnd, QEnd) order whatever generations and tombstones that view
// held), and the worker dispatch never trips the race detector against
// Append/Delete/Compact republishing the view underneath it.
func TestStoreMutateWhileSearchAll(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 6, 1200, 200, 921)
	st, err := NewStore(wl.records[:4], StoreOptions{QueryCacheSize: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]byte, 4)
	for i := range batch {
		batch[i] = wl.queries[i%len(wl.queries)]
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				results, err := st.SearchAll(batch, SearchOptions{Parallelism: 3}, 2)
				if err != nil {
					t.Errorf("worker %d batch %d: %v", w, i, err)
					return
				}
				for qi, res := range results {
					if res == nil {
						t.Errorf("worker %d batch %d: query %d has no result", w, i, qi)
						return
					}
					for _, h := range res.Hits {
						if h.Name == "" {
							t.Errorf("worker %d: hit with empty member name", w)
							return
						}
					}
					if !strictlyAscending(res.Hits) {
						t.Errorf("worker %d batch %d: query %d hits are not strictly (TEnd, QEnd)-ascending", w, i, qi)
						return
					}
				}
			}
		}(w)
	}
	for round := 0; round < 3; round++ {
		if err := st.Append([]SeqRecord{wl.records[4], wl.records[5]}); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Delete(wl.records[4].Name, wl.records[5].Name); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestStoreCompactionFoldsTail: past four generations, compaction must
// fold the small-generation tail back down even with no tombstones.
func TestStoreCompactionFoldsTail(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 7, 1200, 200, 919)
	st, err := NewStore(wl.records[:1], StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 6; i++ {
		if err := st.Append(wl.records[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if st.Generations() != 6 {
		t.Fatalf("Generations() = %d, want 6", st.Generations())
	}
	want := storeHits(t, st, wl.queries, SearchOptions{})
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if g := st.Generations(); g > 2 {
		t.Fatalf("compaction left %d generations", g)
	}
	if !storeResultsEqual(storeHits(t, st, wl.queries, SearchOptions{}), want) {
		t.Fatal("tail-folding compaction changed answers")
	}
}

// TestCompactKeepsMemberOrder: compaction merges each run of adjacent
// victims in the run's own place, so the live order — and with it every
// global coordinate — survives a pass. The probe is a small member, a
// big appended one, then a small appended one: both small generations
// are victims with the clean big one between them, and merging the
// victims into the first one's place read [s0 s2 big].
func TestCompactKeepsMemberOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(922))
	dna := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = "ACGT"[rng.Intn(4)]
		}
		return out
	}
	s0, big, s2 := SeqRecord{"s0", dna(160)}, SeqRecord{"big", dna(3200)}, SeqRecord{"s2", dna(160)}
	st, err := NewStore([]SeqRecord{s0}, StoreOptions{QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []SeqRecord{big, s2} {
		if err := st.Append([]SeqRecord{r}); err != nil {
			t.Fatal(err)
		}
	}
	// A query with a stretch of every member, so a member that moves
	// moves hits.
	query := slices.Concat(s0.Seq[40:120], big.Seq[1000:1080], s2.Seq[40:120])
	opts := SearchOptions{Threshold: 40, Parallelism: 1}
	before, err := st.Search(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Hits) == 0 {
		t.Fatal("the probe query hits nothing; the test is vacuous")
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	order := make([]string, st.Sequences().Len())
	for m := range order {
		order[m] = st.Sequences().Name(m)
	}
	if want := []string{"s0", "big", "s2"}; !slices.Equal(order, want) {
		t.Fatalf("compaction reordered the live members: %v, want %v", order, want)
	}
	after, err := st.Search(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if after.Threshold != before.Threshold || !seqHitsEqual(after.Hits, before.Hits) {
		t.Fatalf("compaction changed the answer: %d hits at H=%d, %d at H=%d before",
			len(after.Hits), after.Threshold, len(before.Hits), before.Threshold)
	}
}

// FuzzLoadStoreDir hammers the directory loader: arbitrary MANIFEST
// bytes, and arbitrary bytes in place of one generation file, over a
// directory of REAL generation files must be rejected cleanly or
// produce a searchable store, and the load must delete nothing. The
// generations are a multi-member DNA one, whose packed core lists
// separator rows, an appended protein one on the plane core, an
// appended DNA one whose rebuilt samples straddle words and an
// appended multi-member DNA one whose rank directory spans two
// superblocks; the seeds flip every byte of the manifest and of each
// small generation file, and the large one's FM-index and anchors by
// indexSweeps' sweeps; the retired versions 3 to 7 in the manifest and
// in each generation file, and the large generation as versions 6 and
// 7 wrote it (version-5 FM-indexes, version 6 text first), must be
// rejected by name.
// The files are built once; each fuzz case gets a fresh directory of
// hard links to them.
func FuzzLoadStoreDir(f *testing.F) {
	st, err := NewStore([]SeqRecord{
		{Name: "alpha", Seq: []byte("ACGTACGTACGTACGTACGT")},
		{Name: "beta", Seq: []byte("TTTTACGTACGTGGGG")},
		{Name: "gamma", Seq: []byte("ACACACACACACAC")},
	}, StoreOptions{})
	if err != nil {
		f.Fatal(err)
	}
	if err := st.Append([]SeqRecord{
		{Name: "p1", Seq: []byte("MKVLAAGIVGLLLAHSACDEFGHIKLMNPQRSTVWY")},
		{Name: "p2", Seq: []byte("WYVTSRQPNMLKIHGFEDCAACGT")},
	}); err != nil {
		f.Fatal(err)
	}
	if err := st.Append([]SeqRecord{{Name: "wide", Seq: wideSampleDNA()}}); err != nil {
		f.Fatal(err)
	}
	if err := st.Append(twoSuperblockRecords()); err != nil {
		f.Fatal(err)
	}
	if _, err := st.Delete("beta"); err != nil {
		f.Fatal(err)
	}
	src := filepath.Join(f.TempDir(), "db")
	if err := st.SaveDir(src); err != nil {
		f.Fatal(err)
	}
	genNames := []string{genFileName(1), genFileName(2), genFileName(3), genFileName(4)}
	goodManifest, err := readFileBytes(filepath.Join(src, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(goodManifest, uint8(0), []byte(nil))
	f.Add([]byte{}, uint8(0), []byte(nil))
	f.Add([]byte("garbage"), uint8(0), []byte(nil))
	for pos := 0; pos < len(goodManifest); pos++ {
		flipped := append([]byte(nil), goodManifest...)
		flipped[pos] ^= 1 << (pos % 8)
		f.Add(flipped, uint8(0), []byte(nil))
	}
	for n := 0; n < len(goodManifest); n += 1 + len(goodManifest)/8 {
		f.Add(append([]byte(nil), goodManifest[:n]...), uint8(0), []byte(nil))
	}
	for _, v := range []byte{3, 4, 5, 6, 7} {
		legacy := append([]byte(nil), goodManifest...)
		legacy[8] = v
		f.Add(legacy, uint8(0), []byte(nil))
	}
	for i, name := range genNames {
		gen, err := readFileBytes(filepath.Join(src, name))
		if err != nil {
			f.Fatal(err)
		}
		if i == len(genNames)-1 {
			g := st.currentView().gens[i]
			for _, flipped := range indexSweeps(f, gen, g.ix) {
				f.Add(goodManifest, uint8(i), flipped)
			}
			for _, v := range []uint32{6, 7} {
				f.Add(goodManifest, uint8(i), legacyStore(f, []*generation{g}, v))
			}
		} else {
			for pos := 0; pos < len(gen); pos++ {
				flipped := append([]byte(nil), gen...)
				flipped[pos] ^= 1 << (pos % 8)
				f.Add(goodManifest, uint8(i), flipped)
			}
		}
		for _, v := range []byte{3, 4, 5, 6, 7} {
			legacy := append([]byte(nil), gen...)
			legacy[8] = v
			f.Add(goodManifest, uint8(i), legacy)
		}
	}
	f.Fuzz(func(t *testing.T, manifest []byte, which uint8, gen []byte) {
		dir := t.TempDir()
		linkStoreDir(t, src, dir)
		if err := writeFileBytes(filepath.Join(dir, manifestName), manifest); err != nil {
			t.Fatal(err)
		}
		if len(gen) > 0 {
			// Replace the link, never the file it shares with src.
			path := filepath.Join(dir, genNames[int(which)%len(genNames)])
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if err := writeFileBytes(path, gen); err != nil {
				t.Fatal(err)
			}
		}
		files := dirFiles(t, dir)
		loaded, err := LoadStoreFile(dir, StoreOptions{})
		if after := dirFiles(t, dir); !slices.Equal(after, files) {
			t.Fatalf("the load changed the directory from %v to %v", files, after)
		}
		checkVersionNamed(t, manifest, err)
		if bytes.Equal(manifest, goodManifest) {
			checkVersionNamed(t, gen, err)
		}
		if err != nil {
			return
		}
		tab := loaded.Sequences()
		for i := 0; i < tab.Len(); i++ {
			_ = tab.Name(i)
		}
		if _, err := loaded.Search([]byte("ACGTACGT"), SearchOptions{Threshold: 8}); err != nil {
			t.Fatalf("search on loaded store: %v", err)
		}
	})
}

// manyMemberRecords returns n short records named m00000, m00001, …
func manyMemberRecords(n int) []SeqRecord {
	recs := make([]SeqRecord, n)
	for i := range recs {
		recs[i] = SeqRecord{Name: fmt.Sprintf("m%05d", i), Seq: []byte("ACGTTGCAACGGT")}
	}
	return recs
}

// TestStoreManifestParseAllocs gates the manifest codec: parsing a
// 20 000-member manifest allocates once per member name, never per
// field; a reader whose size is known sizes the directory once instead
// of growing it by doubling; and a generation file read against its
// MANIFEST entry reuses the entry's names instead of decoding them
// again.
func TestStoreManifestParseAllocs(t *testing.T) {
	const members = 20000
	st, err := NewStore(manyMemberRecords(members), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v := st.currentView()
	var buf bytes.Buffer
	if err := writeStoreManifest(&buf, v.gens, v.stamp); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var parsed []*genManifest
	parse := func(want *genManifest) {
		if parsed, _, err = readStoreManifest(bufio.NewReader(bytes.NewReader(data)), want, int64(len(data))); err != nil {
			t.Fatal(err)
		}
	}
	parse(nil)
	if len(parsed) != 1 || len(parsed[0].names) != members {
		t.Fatalf("parsed %d generations, want 1 of %d members", len(parsed), members)
	}
	// The constant covers the reader, the directory slices' doublings
	// and the manifest structs.
	const slack = 64
	if allocs := testing.AllocsPerRun(3, func() { parse(nil) }); allocs > members+slack {
		t.Errorf("parsing a %d-member manifest made %.0f allocations, want at most one per name (+%d)", members, allocs, slack)
	}
	// The bytes: the two directory slices at their final length (16 B
	// a name header, 8 B a length) and each 6-byte name in an 8-byte
	// block, 640 kB, plus half again for the reader, the structs and
	// the race detector (656 kB measured, 816 kB under -race). Growing
	// the slices by doubling from 4 096 spent 2.1 MB here.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	parse(nil)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(members*(16+8+8)*3/2); got > limit {
		t.Errorf("parsing a %d-member manifest of known size allocated %d bytes, want at most %d", members, got, limit)
	}
	want := parsed[0]
	if allocs := testing.AllocsPerRun(3, func() { parse(want) }); allocs > slack {
		t.Errorf("parsing against the decoded entry made %.0f allocations, want at most %d: names were decoded again", allocs, slack)
	}
	if parsed[0].names[members-1] != want.names[members-1] {
		t.Fatal("parsing against the decoded entry changed a name")
	}
}
