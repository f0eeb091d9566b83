package alae

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/seq"
)

// The crash-injection matrix: every durable step of every mutation is
// a potential crash point, and the recovery contract is binary — a
// store directory captured at ANY step must reload as a store whose
// answers are byte-identical to either the pre-mutation or the
// post-mutation store. storeFSHook (storegen.go) is the seam: the
// matrix snapshots the directory after each step (exactly the on-disk
// state a crash there would leave, leftover temp files included) and
// replays every snapshot through LoadStoreFile. A load deletes
// nothing; the first mutation after it sweeps the crash's debris.

func readFileBytes(path string) ([]byte, error) { return os.ReadFile(path) }

func writeFileBytes(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

// linkStoreDir populates dst with hard links to every regular file of
// src (cheap per-case directory copies for the fuzzer and the matrix).
func linkStoreDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if err := os.Link(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
}

// copyDirBytes snapshots every regular file of src into a fresh
// directory under parent (real copies: snapshots must not alias files
// a later step will rename or remove).
func copyDirBytes(t *testing.T, src, parent, name string) string {
	t.Helper()
	dst := filepath.Join(parent, name)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestStoreCrashMatrix drives the canonical mutation sequence —
// append, delete, compact — over a directory-backed store, snapshotting
// the directory at every durable step of every mutation, and asserts
// each snapshot reloads as exactly the pre- or post-mutation store.
func TestStoreCrashMatrix(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 6, 800, 120, 920)
	dir := filepath.Join(t.TempDir(), "db")
	st, err := NewStore(wl.records[:4], StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	mutations := []struct {
		name string
		run  func() error
	}{
		{"append", func() error { return st.Append(wl.records[4:6]) }},
		{"delete", func() error { _, err := st.Delete(wl.records[1].Name, wl.records[4].Name); return err }},
		{"compact", func() error { _, err := st.Compact(); return err }},
	}
	for _, mut := range mutations {
		t.Run(mut.name, func(t *testing.T) {
			pre := storeHits(t, st, wl.queries, SearchOptions{})
			snapParent := t.TempDir()
			var snaps []string
			var steps []string
			storeFSHook = func(step, path string) error {
				name := fmt.Sprintf("snap-%02d", len(snaps))
				snaps = append(snaps, copyDirBytes(t, dir, snapParent, name))
				steps = append(steps, step+" "+filepath.Base(path))
				return nil
			}
			err := mut.run()
			storeFSHook = nil
			if err != nil {
				t.Fatal(err)
			}
			post := storeHits(t, st, wl.queries, SearchOptions{})
			if mut.name != "compact" && storeResultsEqual(pre, post) {
				t.Fatalf("matrix vacuous: the %s does not change the answers", mut.name)
			}
			if len(snaps) < 4 {
				t.Fatalf("matrix vacuous: only %d durable steps snapshotted", len(snaps))
			}
			for i, snap := range snaps {
				files := dirFiles(t, snap)
				loaded, err := LoadStoreFile(snap, StoreOptions{})
				if err != nil {
					t.Fatalf("snapshot %d (%s) does not load: %v", i, steps[i], err)
				}
				if after := dirFiles(t, snap); !slices.Equal(after, files) {
					t.Fatalf("snapshot %d (%s): the load changed the directory from %v to %v", i, steps[i], files, after)
				}
				got := storeHits(t, loaded, wl.queries, SearchOptions{})
				matchPre := storeResultsEqual(got, pre)
				matchPost := storeResultsEqual(got, post)
				if !matchPre && !matchPost {
					t.Fatalf("snapshot %d (%s) reloads as NEITHER the pre- nor post-%s store", i, steps[i], mut.name)
				}
				// A committed manifest (post-rename) must recover as the
				// post-mutation store even if later steps never ran —
				// unless pre and post answer identically (compaction).
				if i == len(snaps)-1 && !matchPost {
					t.Fatalf("final snapshot (%s) does not reload as the post-%s store", steps[i], mut.name)
				}
				// The next mutation sweeps the debris the crash left.
				if err := loaded.Append([]SeqRecord{{Name: "sweeper", Seq: wl.records[0].Seq[:300]}}); err != nil {
					t.Fatalf("snapshot %d (%s): mutation after recovery: %v", i, steps[i], err)
				}
				assertNoDebris(t, loaded, fmt.Sprintf("snapshot %d (%s)", i, steps[i]))
			}
		})
	}
	// The store that ran the whole gauntlet still matches a clean load.
	final, err := LoadStoreFile(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !storeResultsEqual(storeHits(t, final, wl.queries, SearchOptions{}), storeHits(t, st, wl.queries, SearchOptions{})) {
		t.Fatal("post-gauntlet reload disagrees with the live store")
	}
}

// dirFiles lists the names of dir's entries, sorted.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// assertNoDebris fails when st's directory holds a temp file or a
// generation file st's view does not reference.
func assertNoDebris(t *testing.T, st *Store, what string) {
	t.Helper()
	keep := make(map[string]bool)
	for _, g := range st.currentView().gens {
		keep[genFileName(g.id)] = true
	}
	for _, name := range dirFiles(t, st.Dir()) {
		orphan := strings.HasPrefix(name, "gen-") && !keep[name]
		if orphan || strings.Contains(name, ".tmp-") {
			t.Fatalf("%s: %s survives the next mutation's sweep", what, name)
		}
	}
}

// TestStoreMutationAbortsCleanly injects hard failures (not crashes:
// the mutation SEES the error) at each pre-commit step and asserts the
// mutation reports it, the in-memory store still serves the pre-state,
// no temp debris is left, and the directory still reloads as the
// pre-state.
func TestStoreMutationAbortsCleanly(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 5, 1200, 200, 921)
	for _, failAt := range []string{"temp-created", "temp-written", "temp-synced"} {
		t.Run(failAt, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			st, err := NewStore(wl.records[:3], StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.SaveDir(dir); err != nil {
				t.Fatal(err)
			}
			pre := storeHits(t, st, wl.queries, SearchOptions{})
			preStamp := st.Stamp()
			boom := errors.New("injected failure")
			storeFSHook = func(step, path string) error {
				if step == failAt {
					return boom
				}
				return nil
			}
			err = st.Append(wl.records[3:5])
			storeFSHook = nil
			if !errors.Is(err, boom) {
				t.Fatalf("Append error = %v, want the injected failure", err)
			}
			if st.Stamp() != preStamp {
				t.Fatalf("failed mutation moved the stamp %d -> %d", preStamp, st.Stamp())
			}
			if !storeResultsEqual(storeHits(t, st, wl.queries, SearchOptions{}), pre) {
				t.Fatal("failed mutation changed the in-memory store")
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if strings.Contains(e.Name(), ".tmp-") {
					t.Fatalf("failed mutation left temp file %s", e.Name())
				}
			}
			reloaded, err := LoadStoreFile(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !storeResultsEqual(storeHits(t, reloaded, wl.queries, SearchOptions{}), pre) {
				t.Fatal("directory after failed mutation does not reload as the pre-state")
			}
		})
	}
}

// TestStoreDirSweep plants the debris an interrupted compaction leaves
// — an orphan generation file and a stale temp file — and asserts a
// load serves the manifest's store and deletes nothing, and that the
// next mutation removes the debris while leaving foreign files alone.
func TestStoreDirSweep(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 4, 1200, 200, 922)
	dir := filepath.Join(t.TempDir(), "db")
	st, err := NewStore(wl.records, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	want := storeHits(t, st, wl.queries, SearchOptions{})
	orphan := filepath.Join(dir, genFileName(99))
	if err := os.WriteFile(orphan, []byte("interrupted compaction output"), 0o644); err != nil {
		t.Fatal(err)
	}
	temp := filepath.Join(dir, manifestName+".tmp-1234")
	if err := os.WriteFile(temp, []byte("torn manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "README")
	if err := os.WriteFile(foreign, []byte("not ours"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStoreFile(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !storeResultsEqual(storeHits(t, loaded, wl.queries, SearchOptions{}), want) {
		t.Fatal("debris changed the loaded store")
	}
	for _, path := range []string{orphan, temp} {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("the load deleted %s: %v", filepath.Base(path), err)
		}
	}
	if _, err := loaded.Delete(wl.records[0].Name); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{orphan, temp} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s survived the next mutation's sweep", filepath.Base(path))
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatal("the sweep removed a foreign file")
	}
}

// TestStoreLoadMidAppend loads the directory, as a serving daemon's
// reload job would, between an Append's generation rename and its
// manifest commit. The load must delete nothing: the committed
// manifest names the new generation, so the directory must still load,
// appended member included.
func TestStoreLoadMidAppend(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 4, 1200, 200, 923)
	dir := filepath.Join(t.TempDir(), "db")
	st, err := NewStore(wl.records[:3], StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loads := 0
	storeFSHook = func(step, path string) error {
		if step != "renamed" || !strings.HasPrefix(filepath.Base(path), "gen-") {
			return nil
		}
		loads++
		_, err := LoadStoreFile(dir, StoreOptions{})
		return err
	}
	err = st.Append(wl.records[3:4])
	storeFSHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if loads != 1 {
		t.Fatalf("the reader loaded %d times mid-append, want 1", loads)
	}
	reloaded, err := LoadStoreFile(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("the directory no longer loads after a reader loaded mid-append: %v", err)
	}
	if n := reloaded.Sequences().Len(); n != 4 {
		t.Fatalf("reloaded store holds %d members, want 4", n)
	}
	if !storeResultsEqual(storeHits(t, reloaded, wl.queries[:1], SearchOptions{}), storeHits(t, st, wl.queries[:1], SearchOptions{})) {
		t.Fatal("reloaded store disagrees with the appending store")
	}
}

// TestStoreStaleHandleMutationFails: two handles load one directory
// and one of them appends. The other's view is now stale, so its
// mutation must fail and change nothing, instead of committing a
// manifest that drops the appended generation.
func TestStoreStaleHandleMutationFails(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 4, 1200, 200, 924)
	dir := filepath.Join(t.TempDir(), "db")
	st, err := NewStore(wl.records[:3], StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	appender, err := LoadStoreFile(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stale, err := LoadStoreFile(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := appender.Append(wl.records[3:4]); err != nil {
		t.Fatal(err)
	}
	if _, err := stale.Delete(wl.records[0].Name); err == nil {
		t.Fatal("a stale handle's Delete committed over another handle's Append")
	}
	if stale.Stamp() != st.Stamp() || stale.Sequences().Len() != 3 {
		t.Fatalf("the failed Delete changed the stale handle: stamp %d, %d members", stale.Stamp(), stale.Sequences().Len())
	}
	reloaded, err := LoadStoreFile(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := reloaded.Sequences().Len(); n != 4 {
		t.Fatalf("reloaded store holds %d members, the appender's view 4", n)
	}
	// A handle reloaded after the commit mutates normally.
	if _, err := reloaded.Delete(wl.records[0].Name); err != nil {
		t.Fatal(err)
	}
}

// TestStoreOverlappingWritersSerialize: handle B appends while handle
// A's Append is between its generation rename and its manifest commit.
// Both handles loaded the same stamp, so both would pass the stamp
// check and write the same next generation file. The directory's
// writer lock makes B wait for A's commit and then fail the check with
// nothing written: A's member commits, B reports the stale handle, and
// the directory loads with no orphan generation file.
func TestStoreOverlappingWritersSerialize(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 5, 1200, 200, 925)
	dir := filepath.Join(t.TempDir(), "db")
	st, err := NewStore(wl.records[:3], StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	a, err := LoadStoreFile(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadStoreFile(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bDone := make(chan error, 1)
	started := false
	storeFSHook = func(step, path string) error {
		if started || step != "renamed" || !strings.HasPrefix(filepath.Base(path), "gen-") {
			return nil
		}
		started = true
		go func() { bDone <- b.Append(wl.records[4:5]) }()
		// Without the lock B runs to completion here; with it B blocks
		// until A has committed. Give an unlocked B the time to finish.
		select {
		case err := <-bDone:
			bDone <- err
		case <-time.After(300 * time.Millisecond):
		}
		return nil
	}
	errA := a.Append(wl.records[3:4])
	storeFSHook = nil
	errB := <-bDone
	if errA != nil {
		t.Fatalf("A's Append: %v", errA)
	}
	reloaded, err := LoadStoreFile(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("the directory no longer loads: %v", err)
	}
	if errB == nil || !strings.Contains(errB.Error(), "another handle committed") {
		t.Fatalf("B's overlapping Append returned %v, want the stale-handle error", errB)
	}
	seqs := reloaded.Sequences()
	if seqs.Len() != 4 || seqs.Name(3) != wl.records[3].Name {
		t.Fatalf("reloaded store holds %d members, want the 3 saved plus A's %q", seqs.Len(), wl.records[3].Name)
	}
	assertNoDebris(t, reloaded, "after overlapping writers")
}

// TestStoreDirManifestMismatch: a generation file whose members differ
// from what the manifest says — in name or in length — fails the load,
// and so does the retired version-1 directory manifest.
func TestStoreDirManifestMismatch(t *testing.T) {
	recs := []SeqRecord{
		{Name: "alpha", Seq: []byte("ACGTACGTACGTACGTACGT")},
		{Name: "beta", Seq: []byte("TTTTACGTACGTGGGG")},
	}
	dir := filepath.Join(t.TempDir(), "db")
	st, err := NewStore(recs, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	renamed := slices.Clone(recs)
	renamed[1].Name = "gamma"
	shortened := slices.Clone(recs)
	shortened[1].Seq = shortened[1].Seq[1:]
	for _, tc := range []struct {
		name    string
		records []SeqRecord
		want    string
	}{
		{"name", renamed, `"beta" of 16 bytes, manifest says "gamma" of 16`},
		{"length", shortened, `"beta" of 16 bytes, manifest says "beta" of 15`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			other, err := NewStore(tc.records, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var manifest bytes.Buffer
			v := other.currentView()
			if err := writeStoreManifest(&manifest, v.gens, v.stamp); err != nil {
				t.Fatal(err)
			}
			bad := t.TempDir()
			linkStoreDir(t, dir, bad)
			if err := os.Remove(filepath.Join(bad, manifestName)); err != nil {
				t.Fatal(err)
			}
			if err := writeFileBytes(filepath.Join(bad, manifestName), manifest.Bytes()); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadStoreFile(bad, StoreOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("load error = %v, want one containing %s", err, tc.want)
			}
		})
	}
	t.Run("version-1", func(t *testing.T) {
		old := t.TempDir()
		linkStoreDir(t, dir, old)
		if err := os.Remove(filepath.Join(old, manifestName)); err != nil {
			t.Fatal(err)
		}
		v1 := append([]byte("ALAEMANF"), 1, 0, 0, 0)
		if err := writeFileBytes(filepath.Join(old, manifestName), v1); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadStoreFile(old, StoreOptions{}); err == nil || !strings.Contains(err.Error(), "version-1 directory manifest") {
			t.Fatalf("load error = %v, want the old-format message", err)
		}
		if _, err := StoreDirStamp(old); err == nil || !strings.Contains(err.Error(), "version-1 directory manifest") {
			t.Fatalf("StoreDirStamp error = %v, want the old-format message", err)
		}
	})
}
