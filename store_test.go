package alae

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/seq"
)

// Store acceptance tests: sharding must be invisible (K shards return
// the monolithic index's mapped hit set, byte for byte), persistence
// must round-trip the partition, and the query cache must only move
// work, never change it.

// storeWorkload builds a multi-member database whose queries are
// homologous to segments placed well inside chosen members — far
// enough from member boundaries that no above-threshold alignment can
// reach a separator, which is what makes K>1 parity exact.
type storeWorkload struct {
	records []SeqRecord
	queries [][]byte
}

func buildStoreWorkload(alpha *seq.Alphabet, members, memberLen, segLen int, seed int64) storeWorkload {
	rng := rand.New(rand.NewSource(seed))
	letters := alpha.Letters()
	randSeq := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = letters[rng.Intn(len(letters))]
		}
		return out
	}
	var wl storeWorkload
	for i := 0; i < members; i++ {
		wl.records = append(wl.records, SeqRecord{
			Name: fmt.Sprintf("member%02d", i),
			Seq:  randSeq(memberLen),
		})
	}
	// Two queries, each homologous to segments of three members, the
	// segments centred in their members.
	for qi := 0; qi < 2; qi++ {
		query := randSeq(3*segLen + 300)
		for k := 0; k < 3; k++ {
			src := (qi*3 + k*2 + 1) % members
			mid := memberLen/2 - segLen/2
			seg := seq.Mutate(alpha, wl.records[src].Seq[mid:mid+segLen],
				seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.01}, rng)
			copy(query[100+k*(segLen+50):], seg)
		}
		wl.queries = append(wl.queries, query)
	}
	return wl
}

// monolithicSeqHits maps a monolithic Index result over the same
// concatenation into the store's SeqHit view — the reference the
// scatter-gather must reproduce.
func monolithicSeqHits(res *Result, tab *seq.Table) []SeqHit {
	out := make([]SeqHit, 0, len(res.Hits))
	for _, h := range res.Hits {
		m, local, ok := tab.Locate(h.TEnd, h.TEnd+1)
		if !ok {
			continue
		}
		out = append(out, SeqHit{Hit: h, Member: m, Name: tab.Name(m), LocalTEnd: local})
	}
	return out
}

// strictlyAscending reports whether hits are in strict (TEnd, QEnd)
// order — the canonical order every search surface returns, which the
// store's gather produces by draining, never by sorting.
func strictlyAscending(hits []SeqHit) bool {
	for i := 1; i < len(hits); i++ {
		a, b := hits[i-1], hits[i]
		if a.TEnd > b.TEnd || (a.TEnd == b.TEnd && a.QEnd >= b.QEnd) {
			return false
		}
	}
	return true
}

func seqHitsEqual(a, b []SeqHit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStoreShardParity is the tentpole acceptance gate: over DNA and
// protein workloads, for sequential and parallel searches, through
// one-shot Store.Search and fresh and re-armed StoreSessions, a store
// with K ∈ {1, 2, 5} shards returns exactly the monolithic index's
// mapped hit set — same members, same local and global coordinates,
// same scores, same E-value-derived threshold, in the same strictly
// ascending (TEnd, QEnd) order. The same holds after the store has
// grown into three generations with tombstones in two of them
// (mutatedStore), against the monolithic index over the live members:
// the gather appends generation after generation, member after member,
// and sorts nothing.
func TestStoreShardParity(t *testing.T) {
	cases := []struct {
		name   string
		alpha  *seq.Alphabet
		opts   SearchOptions
		seed   int64
		mlen   int
		seglen int
	}{
		{"dna-alae", seq.DNA, SearchOptions{}, 700, 3000, 300},
		{"dna-alae-par", seq.DNA, SearchOptions{Parallelism: 0}, 700, 3000, 300},
		{"dna-hybrid", seq.DNA, SearchOptions{Algorithm: ALAEHybrid}, 701, 2500, 250},
		{"dna-evalue", seq.DNA, SearchOptions{EValue: 1e-5}, 702, 3000, 300},
		{"protein-alae", seq.Protein, SearchOptions{Scheme: DefaultProteinScheme}, 703, 1500, 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wl := buildStoreWorkload(tc.alpha, 7, tc.mlen, tc.seglen, tc.seed)
			recs := make([]seq.Record, len(wl.records))
			for i, r := range wl.records {
				recs[i] = seq.Record{Header: r.Name, Seq: r.Seq}
			}
			col := seq.NewCollection(recs)
			// The reference carries the same member-separator barrier the
			// store's generation indexes do, so hit AND entry parity are
			// exact (a barrier-free index would compute a handful of
			// extra entries on paths that touch a separator edge).
			mono := newBarrierIndex(col.Text(), seq.Separator)
			wantThreshold := make([]int, len(wl.queries))
			wantHits := make([][]SeqHit, len(wl.queries))
			wantEntries := make([]int64, len(wl.queries))
			for qi, query := range wl.queries {
				want, err := mono.Search(query, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				wantThreshold[qi] = want.Threshold
				wantHits[qi] = monolithicSeqHits(want, col.Table())
				wantEntries[qi] = want.Stats.CalculatedEntries
				if qi == 0 && len(wantHits[qi]) == 0 {
					t.Fatal("vacuous workload: monolithic search found nothing")
				}
			}
			for _, k := range []int{1, 2, 4} {
				st, err := NewStore(wl.records, StoreOptions{Shards: k})
				if err != nil {
					t.Fatal(err)
				}
				if st.Shards() != k {
					t.Fatalf("built %d shards, want %d", st.Shards(), k)
				}
				ss, err := st.OpenSession(tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ { // fresh, then re-armed
					for qi, query := range wl.queries {
						got, err := st.Search(query, tc.opts) // pooled scatter-gather
						if err != nil {
							t.Fatal(err)
						}
						if got.Threshold != wantThreshold[qi] {
							t.Fatalf("K=%d pass %d query %d: store threshold %d, monolithic %d",
								k, pass, qi, got.Threshold, wantThreshold[qi])
						}
						if !seqHitsEqual(got.Hits, wantHits[qi]) {
							t.Fatalf("K=%d pass %d query %d: store hits diverge from monolithic (%d vs %d)",
								k, pass, qi, len(got.Hits), len(wantHits[qi]))
						}
						ses, err := ss.Search(query) // session path, cache bypassed
						if err != nil {
							t.Fatal(err)
						}
						if !seqHitsEqual(ses.Hits, wantHits[qi]) {
							t.Fatalf("K=%d pass %d query %d: store session hits diverge", k, pass, qi)
						}
						if ses.Stats.CalculatedEntries != got.Stats.CalculatedEntries &&
							got.Stats.QueryCacheHits == 0 {
							t.Fatalf("K=%d pass %d query %d: session entries %d, one-shot %d",
								k, pass, qi, ses.Stats.CalculatedEntries, got.Stats.CalculatedEntries)
						}
						// The shared-index scatter's entry-parity gate: K only
						// partitions the resolved work, so CalculatedEntries is
						// byte-equal to the monolithic search for EVERY K — the
						// old text-partitioned sharding redid ~1.7× the entries
						// at K=4.
						if ses.Stats.CalculatedEntries != wantEntries[qi] {
							t.Fatalf("K=%d pass %d query %d: entries %d, monolithic %d",
								k, pass, qi, ses.Stats.CalculatedEntries, wantEntries[qi])
						}
					}
				}
				ss.Close()
				ss.Close() // idempotent
				if _, err := ss.Search(wl.queries[0]); err == nil {
					t.Fatal("Search on a closed StoreSession succeeded")
				}
			}

			// Multi-generation, tombstoned, at 1, 2 and 3 lanes.
			var liveThreshold []int
			var liveHits [][]SeqHit
			for k := 1; k <= 3; k++ {
				st, live := mutatedStore(t, wl, StoreOptions{Shards: k, QueryCacheSize: -1})
				if liveHits == nil { // the reference: one index over the live members
					liveRecs := make([]seq.Record, len(live))
					for i, r := range live {
						liveRecs[i] = seq.Record{Header: r.Name, Seq: r.Seq}
					}
					liveCol := seq.NewCollection(liveRecs)
					liveMono := newBarrierIndex(liveCol.Text(), seq.Separator)
					for _, query := range wl.queries {
						want, err := liveMono.Search(query, tc.opts)
						if err != nil {
							t.Fatal(err)
						}
						liveThreshold = append(liveThreshold, want.Threshold)
						liveHits = append(liveHits, monolithicSeqHits(want, liveCol.Table()))
					}
				}
				for qi, query := range wl.queries {
					got, err := st.Search(query, tc.opts)
					if err != nil {
						t.Fatal(err)
					}
					if !strictlyAscending(got.Hits) {
						t.Fatalf("mutated K=%d query %d: hits are not strictly (TEnd, QEnd)-ascending", k, qi)
					}
					if got.Threshold != liveThreshold[qi] || !seqHitsEqual(got.Hits, liveHits[qi]) {
						t.Fatalf("mutated K=%d query %d: store hits diverge from the live monolithic index (%d vs %d, thresholds %d vs %d)",
							k, qi, len(got.Hits), len(liveHits[qi]), got.Threshold, liveThreshold[qi])
					}
				}
			}
		})
	}
}

// TestStoreSingleRecordMatchesIndex pins the K=1 degenerate case: a
// store over one record is the raw index — no separators, global
// coordinates equal to text coordinates, identical hit set and work.
func TestStoreSingleRecordMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(710))
	letters := seq.DNA.Letters()
	text := make([]byte, 12_000)
	for i := range text {
		text[i] = letters[rng.Intn(4)]
	}
	query := seq.Mutate(seq.DNA, text[4_000:4_400],
		seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.01}, rng)
	ix := NewIndex(text)
	want, err := ix.Search(query, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Hits) == 0 {
		t.Fatal("vacuous workload")
	}
	st, err := NewStore([]SeqRecord{{Name: "only", Seq: text}}, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Search(query, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Threshold != want.Threshold {
		t.Fatalf("threshold %d, index %d", got.Threshold, want.Threshold)
	}
	if len(got.Hits) != len(want.Hits) {
		t.Fatalf("%d hits, index %d", len(got.Hits), len(want.Hits))
	}
	for i, sh := range got.Hits {
		if sh.Hit != want.Hits[i] || sh.Member != 0 || sh.Name != "only" || sh.LocalTEnd != want.Hits[i].TEnd {
			t.Fatalf("hit %d: %+v, index hit %+v", i, sh, want.Hits[i])
		}
	}
	if got.Stats.CalculatedEntries != want.Stats.CalculatedEntries {
		t.Fatalf("entries %d, index %d", got.Stats.CalculatedEntries, want.Stats.CalculatedEntries)
	}
}

// TestStoreRejectsSeparatorEndingHits pins the member-boundary
// contract from both sides. A barrier-FREE monolithic index over the
// concatenation lets an alignment strong enough to stay above
// threshold consume the separator: it reports hits ON the separator
// row and bridging hits PAST it, inside the next member. The store's
// generation indexes carry the separator as a hard barrier
// (buildGeneration), so neither class can exist in a store result —
// its hit set must equal the barrier-enabled monolithic reference,
// which is the barrier-free set minus exactly those two classes.
func TestStoreRejectsSeparatorEndingHits(t *testing.T) {
	rng := rand.New(rand.NewSource(711))
	letters := seq.DNA.Letters()
	randSeq := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = letters[rng.Intn(4)]
		}
		return out
	}
	a, b := randSeq(1000), randSeq(1000)
	// The query matches a's suffix exactly: the alignment reaches the
	// member boundary with a score far above H, so cells on and past
	// the separator stay above H too.
	query := append([]byte(nil), a[700:]...)
	opts := SearchOptions{Threshold: 40}

	recs := []seq.Record{{Header: "a", Seq: a}, {Header: "b", Seq: b}}
	col := seq.NewCollection(recs)
	free, err := NewIndex(col.Text()).Search(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newBarrierIndex(col.Text(), seq.Separator).Search(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	sepPos := col.Table().Start(1) - 1
	onSeparator, bridging := 0, 0
	for _, h := range free.Hits {
		switch {
		case h.TEnd == sepPos:
			onSeparator++
		case h.TEnd > sepPos:
			// Above threshold within a handful of rows into member b:
			// only an alignment carried over from a can score that.
			bridging++
		}
	}
	if onSeparator == 0 || bridging == 0 {
		t.Fatalf("workload failed to produce boundary hits (%d on separator, %d bridging); the test is vacuous",
			onSeparator, bridging)
	}
	for _, h := range want.Hits {
		if h.TEnd >= sepPos {
			t.Fatalf("barrier index reported a hit at text end %d, on or past the separator at %d", h.TEnd, sepPos)
		}
	}
	if len(want.Hits) != len(free.Hits)-onSeparator-bridging {
		t.Fatalf("barrier index returned %d hits; barrier-free %d with %d on the separator and %d bridging",
			len(want.Hits), len(free.Hits), onSeparator, bridging)
	}

	st, err := NewStore([]SeqRecord{{Name: "a", Seq: a}, {Name: "b", Seq: b}}, StoreOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Search(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !seqHitsEqual(got.Hits, monolithicSeqHits(want, col.Table())) {
		t.Fatal("store hits diverge from the barrier-enabled monolithic set")
	}
	for _, sh := range got.Hits {
		if sh.LocalTEnd < 0 || sh.LocalTEnd >= st.Sequences().SeqLen(sh.Member) {
			t.Fatalf("hit local end %d outside member %d (len %d)", sh.LocalTEnd, sh.Member, st.Sequences().SeqLen(sh.Member))
		}
	}
}

// TestStoreNoCrossMemberBridging is the separator hard-reset
// regression: a store whose member EQUALS the query produces a
// self-match score far above threshold, and before the barrier that
// alignment could cross the member separator (one mismatch) and mint
// tens of thousands of spurious ≥H end positions in whichever member
// happened to FOLLOW it in its generation — so per-member hit sets
// depended on Append grouping. With the separator a hard reset in the
// band kernels, every layout of the same logical store must return the
// same hits, whatever the generation grouping or lane count K.
func TestStoreNoCrossMemberBridging(t *testing.T) {
	rng := rand.New(rand.NewSource(715))
	letters := seq.DNA.Letters()
	randSeq := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = letters[rng.Intn(4)]
		}
		return out
	}
	members := make([][]byte, 4)
	for i := range members {
		members[i] = randSeq(800)
	}
	query := append([]byte(nil), members[1]...) // member 1 IS the query
	opts := SearchOptions{Threshold: 50}
	recOf := func(i int) SeqRecord {
		return SeqRecord{Name: fmt.Sprintf("m%d", i), Seq: members[i]}
	}

	// Vacuousness guard: without the barrier, the self-match really does
	// bridge — a barrier-free monolithic index over m1#m2 reports end
	// positions past the separator.
	joined := append(append(append([]byte(nil), members[1]...), seq.Separator), members[2]...)
	free, err := NewIndex(joined).Search(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	bridging := 0
	for _, h := range free.Hits {
		if h.TEnd >= len(members[1]) {
			bridging++
		}
	}
	if bridging == 0 {
		t.Fatal("workload failed to bridge on a barrier-free index; the regression test is vacuous")
	}

	// The same logical store in four layouts: one generation at K=1 and
	// K=2, and two multi-generation groupings that historically changed
	// which member the self-match bled into.
	var results []*StoreResult
	var layouts []string
	build := func(name string, groups [][]int, k int) {
		recsOf := func(grp []int) []SeqRecord {
			recs := make([]SeqRecord, len(grp))
			for i, m := range grp {
				recs[i] = recOf(m)
			}
			return recs
		}
		st, err := NewStore(recsOf(groups[0]), StoreOptions{Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		for _, grp := range groups[1:] { // each Append is its own generation
			if err := st.Append(recsOf(grp)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := st.Search(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		layouts = append(layouts, name)
	}
	build("one-gen-k1", [][]int{{0, 1, 2, 3}}, 1)
	build("one-gen-k2", [][]int{{0, 1, 2, 3}}, 2)
	build("m1-with-m2", [][]int{{0}, {1, 2}, {3}}, 1)
	build("m1-ends-gen", [][]int{{0, 1}, {2, 3}}, 1)

	if len(results[0].Hits) == 0 {
		t.Fatal("self-match produced no hits")
	}
	for _, sh := range results[0].Hits {
		if sh.Member != 1 {
			t.Fatalf("hit in member %d (%s); only the self-matched member may hit", sh.Member, sh.Name)
		}
	}
	for i := 1; i < len(results); i++ {
		if !seqHitsEqual(results[i].Hits, results[0].Hits) {
			t.Fatalf("layout %s returns %d hits; layout %s returns %d — per-member hits depend on store layout",
				layouts[i], len(results[i].Hits), layouts[0], len(results[0].Hits))
		}
	}
}

// TestStoreManifestRoundTrip saves and reloads a sharded store and
// checks the partition, directory and answers survive; corrupt files
// are rejected with a message, not a panic.
func TestStoreManifestRoundTrip(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 5, 2000, 250, 712)
	st, err := NewStore(wl.records, StoreOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)

	loaded, err := LoadStore(bytes.NewReader(saved), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// K is a runtime parallelism knob, never persisted: a load without
	// StoreOptions.Shards serves at K=1 whatever the saver used.
	if loaded.Shards() != 1 {
		t.Fatalf("loaded %d lanes, want default 1", loaded.Shards())
	}
	if loaded.Sequences().Len() != st.Sequences().Len() {
		t.Fatalf("loaded %d members, saved %d", loaded.Sequences().Len(), st.Sequences().Len())
	}
	for i := 0; i < st.Sequences().Len(); i++ {
		if loaded.Sequences().Name(i) != st.Sequences().Name(i) ||
			loaded.Sequences().SeqLen(i) != st.Sequences().SeqLen(i) ||
			loaded.Sequences().Start(i) != st.Sequences().Start(i) {
			t.Fatalf("member %d directory mismatch after reload", i)
		}
	}
	for qi, query := range wl.queries {
		want, err := st.Search(query, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Search(query, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want.Threshold != got.Threshold || !seqHitsEqual(want.Hits, got.Hits) {
			t.Fatalf("query %d: loaded store diverges from saved", qi)
		}
	}

	// Corruptions: bad magic, bad version, the retired versions 1 and 2,
	// truncated payload, hostile member length.
	bad := append([]byte(nil), saved...)
	bad[0] = 'X'
	if _, err := LoadStore(bytes.NewReader(bad), StoreOptions{}); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic accepted (err=%v)", err)
	}
	bad = append([]byte(nil), saved...)
	bad[8] = 99 // version field
	if _, err := LoadStore(bytes.NewReader(bad), StoreOptions{}); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version accepted (err=%v)", err)
	}
	for _, v := range []byte{1, 2} {
		bad = append([]byte(nil), saved...)
		bad[8] = v
		_, err := LoadStore(bytes.NewReader(bad), StoreOptions{})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Fatalf("legacy version %d accepted or not named (err=%v)", v, err)
		}
	}
	if _, err := LoadStore(bytes.NewReader(saved[:len(saved)/2]), StoreOptions{}); err == nil {
		t.Fatal("truncated store accepted")
	}
	// A hostile member length (the first member's seqLen field sits
	// after magic+version+stamp+genCount+genID+memberCount+nameLen+name
	// in the v3 layout) must be rejected by the plausibility bounds,
	// not answered with a giant allocation.
	bad = append([]byte(nil), saved...)
	off := 8 + 4 + 8 + 8 + 8 + 8 + 8 + len(st.Sequences().Name(0))
	for i := 0; i < 8; i++ {
		bad[off+i] = 0xFF
	}
	if _, err := LoadStore(bytes.NewReader(bad), StoreOptions{}); err == nil ||
		!strings.Contains(err.Error(), "implausible") {
		t.Fatalf("hostile member length accepted (err=%v)", err)
	}
}

// TestStoreQueryCache covers the result-level cache: exact repeats are
// served from it with the hit/miss counters saying so, a disabled
// cache changes nothing but the counters, options changes miss (the
// fingerprint is part of the key), and eviction pressure never changes
// answers.
func TestStoreQueryCache(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 4, 2000, 250, 713)
	query := wl.queries[0]

	t.Run("repeat-hits", func(t *testing.T) {
		st, err := NewStore(wl.records, StoreOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		first, err := st.Search(query, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if first.Stats.QueryCacheMisses != 1 || first.Stats.QueryCacheHits != 0 {
			t.Fatalf("cold search counters: %+v", first.Stats)
		}
		second, err := st.Search(query, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if second.Stats.QueryCacheHits != 1 || second.Stats.QueryCacheMisses != 0 {
			t.Fatalf("hot search counters: hits=%d misses=%d",
				second.Stats.QueryCacheHits, second.Stats.QueryCacheMisses)
		}
		if !seqHitsEqual(first.Hits, second.Hits) || first.Threshold != second.Threshold {
			t.Fatal("cached result differs from computed result")
		}
		if hits, misses := st.QueryCacheStats(); hits != 1 || misses != 1 {
			t.Fatalf("store counters hits=%d misses=%d, want 1/1", hits, misses)
		}
		// A different configuration must not share entries.
		other, err := st.Search(query, SearchOptions{Threshold: first.Threshold + 5})
		if err != nil {
			t.Fatal(err)
		}
		if other.Stats.QueryCacheHits != 0 {
			t.Fatal("different options hit the cache of another configuration")
		}
		if len(other.Hits) >= len(first.Hits) {
			t.Fatalf("tighter threshold returned %d hits, loose %d", len(other.Hits), len(first.Hits))
		}
	})

	t.Run("disabled", func(t *testing.T) {
		st, err := NewStore(wl.records, StoreOptions{Shards: 2, QueryCacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			res, err := st.Search(query, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.QueryCacheHits != 0 || res.Stats.QueryCacheMisses != 0 {
				t.Fatalf("disabled cache counted: %+v", res.Stats)
			}
		}
		if hits, misses := st.QueryCacheStats(); hits != 0 || misses != 0 {
			t.Fatalf("disabled cache store counters %d/%d", hits, misses)
		}
	})

	t.Run("eviction", func(t *testing.T) {
		st, err := NewStore(wl.records, StoreOptions{Shards: 2, QueryCacheSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewStore(wl.records, StoreOptions{Shards: 2, QueryCacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		queries := make([][]byte, 4)
		for i := range queries {
			queries[i] = append([]byte(nil), query...)
			queries[i][i] = 'A' // distinct cache keys
		}
		for round := 0; round < 3; round++ {
			for qi, q := range queries {
				got, err := st.Search(q, SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Search(q, SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !seqHitsEqual(got.Hits, want.Hits) {
					t.Fatalf("round %d query %d: eviction-pressured cache diverged", round, qi)
				}
			}
			if st.cache.len() > 2 {
				t.Fatalf("cache grew to %d entries, capacity 2", st.cache.len())
			}
		}
	})
}

// TestStoreQueryCacheConcurrent hammers one store from many goroutines
// mixing repeated and distinct queries; run under -race this is the
// data-race check for the cache and the session pools, and every
// result must equal the uncached reference.
func TestStoreQueryCacheConcurrent(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 4, 1500, 200, 714)
	st, err := NewStore(wl.records, StoreOptions{Shards: 2, QueryCacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewStore(wl.records, StoreOptions{Shards: 2, QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	wants := make([][]SeqHit, len(wl.queries))
	for qi, q := range wl.queries {
		res, err := ref.Search(q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wants[qi] = res.Hits
	}
	var wg sync.WaitGroup
	errc := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				qi := (g + i) % len(wl.queries)
				res, err := st.Search(wl.queries[qi], SearchOptions{})
				if err != nil {
					errc <- err
					return
				}
				if !seqHitsEqual(res.Hits, wants[qi]) {
					errc <- fmt.Errorf("goroutine %d iteration %d: cached result diverged", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestStoreSearchAll pins the batch path: results in query order equal
// one-shot searches, repeats collapse into cache probes, and the first
// failing query index is reported deterministically.
func TestStoreSearchAll(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 4, 1500, 200, 715)
	st, err := NewStore(wl.records, StoreOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]byte{wl.queries[0], wl.queries[1], wl.queries[0], wl.queries[1]}
	results, err := st.SearchAll(queries, SearchOptions{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	for qi, res := range results {
		want, err := st.Search(queries[qi], SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !seqHitsEqual(res.Hits, want.Hits) {
			t.Fatalf("query %d: batch result diverges from one-shot", qi)
		}
	}
	if hits, _ := st.QueryCacheStats(); hits == 0 {
		t.Fatal("repeated batch queries never hit the query cache")
	}

	// Error determinism: the shortest failing query wins, wrapped with
	// its index.
	bad := [][]byte{wl.queries[0], []byte("ACG"), []byte("ACG")}
	_, err = st.SearchAll(bad, SearchOptions{}, 3)
	if err == nil || !strings.Contains(err.Error(), "store query 1") {
		t.Fatalf("SearchAll error = %v, want the lowest failing index (1)", err)
	}
	if _, err := st.SearchAll(nil, SearchOptions{}, 2); err != nil {
		t.Fatalf("empty batch errored: %v", err)
	}
}

// TestStoreLaneKnob pins the post-refactor K semantics: Shards is a
// parallelism knob over one monolithic index per generation, so it is
// NOT clamped to the record count (K lanes of family slices exist for
// any record count), it is constant across mutations, and a K far
// above the workload's family count still answers correctly.
func TestStoreLaneKnob(t *testing.T) {
	if _, err := NewStore(nil, StoreOptions{}); err == nil {
		t.Fatal("NewStore accepted zero records")
	}
	seqBytes := []byte("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT")
	st, err := NewStore([]SeqRecord{{Name: "a", Seq: seqBytes}}, StoreOptions{Shards: 7})
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards() != 7 {
		t.Fatalf("Shards() = %d, want the lane knob 7 (no record-count clamp)", st.Shards())
	}
	if err := st.Append([]SeqRecord{{Name: "b", Seq: seqBytes}}); err != nil {
		t.Fatal(err)
	}
	if st.Shards() != 7 {
		t.Fatalf("Shards() changed across a mutation: %d", st.Shards())
	}
	ref, err := NewStore([]SeqRecord{{Name: "a", Seq: seqBytes}}, StoreOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Append([]SeqRecord{{Name: "b", Seq: seqBytes}}); err != nil {
		t.Fatal(err)
	}
	query := seqBytes[:24]
	got, err := st.Search(query, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Search(query, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !seqHitsEqual(got.Hits, want.Hits) {
		t.Fatalf("K=7 hits diverge from K=1 (%d vs %d)", len(got.Hits), len(want.Hits))
	}
	if got.Stats.CalculatedEntries != want.Stats.CalculatedEntries {
		t.Fatalf("K=7 entries %d, K=1 entries %d", got.Stats.CalculatedEntries, want.Stats.CalculatedEntries)
	}
}

// TestOpenSessionValidatesEagerly pins the satellite fix: for EVERY
// algorithm — the baselines included — configuration errors surface at
// OpenSession, not on the first Search.
func TestOpenSessionValidatesEagerly(t *testing.T) {
	ix := NewIndex([]byte("ACGTACGTACGTACGTACGTACGTACGT"))
	algorithms := []Algorithm{ALAE, ALAEHybrid, BWTSW, BLAST, SmithWaterman}
	for _, alg := range algorithms {
		if _, err := ix.OpenSession(SearchOptions{Algorithm: alg, Threshold: -1}); err == nil {
			t.Errorf("%v: negative threshold accepted at open", alg)
		}
		if _, err := ix.OpenSession(SearchOptions{Algorithm: alg, EValue: -2}); err == nil {
			t.Errorf("%v: negative E-value accepted at open", alg)
		}
		if _, err := ix.OpenSession(SearchOptions{Algorithm: alg, Parallelism: -3}); err == nil {
			t.Errorf("%v: negative parallelism accepted at open", alg)
		}
	}
	if _, err := ix.OpenSession(SearchOptions{Algorithm: Algorithm(97)}); err == nil {
		t.Error("unknown algorithm accepted at open")
	}
	// BWT-SW's scheme floor is a configuration error too.
	if _, err := ix.OpenSession(SearchOptions{
		Algorithm: BWTSW,
		Scheme:    Scheme{Match: 1, Mismatch: -1, GapOpen: -5, GapExtend: -2},
		Threshold: 10,
	}); err == nil {
		t.Error("BWT-SW-incompatible scheme accepted at open")
	}
	// Index.Search applies the same validation.
	if _, err := ix.Search([]byte("ACGTACGTACGT"), SearchOptions{Parallelism: -1, Threshold: 20}); err == nil {
		t.Error("Index.Search accepted negative parallelism")
	}
	// The store session inherits the eager contract.
	st, err := NewStore([]SeqRecord{{Name: "a", Seq: bytes.Repeat([]byte("ACGT"), 16)}}, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.OpenSession(SearchOptions{Threshold: -1}); err == nil {
		t.Error("StoreSession accepted a negative threshold at open")
	}
	if _, err := st.Search([]byte("ACGTACGTACGTACGT"), SearchOptions{EValue: -1}); err == nil {
		t.Error("Store.Search accepted a negative E-value")
	}
}

// TestStoreSearchAllStopsAfterError pins the store batch path's
// cancellation contract, mirroring Index.SearchAll's: after the first
// per-query failure no further queries are launched (a few may already
// be in flight on other workers), and the lowest failing index is the
// one reported.
func TestStoreSearchAllStopsAfterError(t *testing.T) {
	st, err := NewStore([]SeqRecord{{Name: "a", Seq: bytes.Repeat([]byte("ACGT"), 16)}},
		StoreOptions{QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]byte, 64)
	for i := range queries {
		queries[i] = []byte("ACG") // shorter than q: every query errors instantly
	}
	var (
		mu      sync.Mutex
		started int
	)
	storeSearchAllStarted = func(int) {
		mu.Lock()
		started++
		mu.Unlock()
	}
	defer func() { storeSearchAllStarted = nil }()

	_, err = st.SearchAll(queries, SearchOptions{}, 2)
	if err == nil || !strings.Contains(err.Error(), "store query 0") {
		t.Fatalf("SearchAll error = %v, want the lowest failing index (0)", err)
	}
	if started > 4 {
		t.Fatalf("%d of %d queries were launched after the first error; cancellation is not stopping work", started, len(queries))
	}
}

// TestStoreGatherAllocBound pins the streaming gather's shape: a warm
// StoreSession search materialises ONE hit slice — the caller's
// StoreResult.Hits — with no per-lane intermediate Result.Hits, bucket
// or scratch copy in between; each lane's collector drains straight
// into it. The steady-state allocation count is therefore independent
// of how many hits the query produces. It is NOT independent of the
// lane count: a parallel search (core.Session.searchFamilies) costs its
// context list and wait group, and every work-stealing lane its context
// and goroutine closure; the lane workspaces, collector shards and the
// stealing cursor are session-owned and allocate nothing once warm.
// So the lane count is pinned — Shards and Parallelism explicit, never
// the NumCPU default, which made this gate machine-dependent — and the
// budget is stated per lane. The one hit slice stays one when the
// gather rejects a tombstoned member's few hits; it is copied down to
// size only when the slack would pass an eighth of the hits kept.
func TestStoreGatherAllocBound(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 5, 3000, 400, 714)
	query := wl.queries[0]
	// A sixth member holding a sliver of the answer: 80 bases of the query
	// itself. Tombstoned, it makes the gather reject a few hits of many.
	records := append(wl.records, SeqRecord{Name: "sliver", Seq: query[100:180]})
	for _, lanes := range []int{1, 2} {
		st, err := NewStore(records, StoreOptions{Shards: lanes, QueryCacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		ss, err := st.OpenSession(SearchOptions{Threshold: 60, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		search := func() *StoreResult {
			res, err := ss.Search(query)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		var all *StoreResult
		for warm := 0; warm < 3; warm++ {
			all = search()
		}
		if len(all.Hits) == 0 {
			t.Fatal("workload produced no hits; the test is vacuous")
		}
		allocs := testing.AllocsPerRun(5, func() { search() })
		// Measured search by search under work stealing: 2 at one lane
		// (the StoreResult and its Hits array), 10–11 at two, 13–19 at
		// three, 16–24 at four. Above two lanes the figure varies from
		// search to search, because stealing moves load between collector
		// shards and a shard shrunk by a light search regrows on the next.
		// The slack absorbs that; anything scaling with the hit count
		// (170 135 here) blows far past it. Under the race detector the
		// same 2 and 10–11 were measured: lane workspaces are
		// session-owned, not drawn from a sync.Pool, which drops a
		// quarter of what is Put into it under -race. The race budget
		// still allows every lane a workspace rebuild (~95 objects) on
		// every run — a per-lane figure, and 270 at two lanes against
		// 170 135 hits.
		const fixed, perLane, raceRebuild = 6, 4, 128
		budget := float64(fixed + perLane*lanes)
		if raceEnabled {
			budget += raceRebuild * float64(lanes)
		}
		if allocs > budget {
			t.Fatalf("warm StoreSession.Search at %d lanes allocated %.1f objects per query for %d hits (budget %.0f): the gather is materialising intermediates",
				lanes, allocs, len(all.Hits), budget)
		}

		// A tombstoned member with a small share of the hits: the gather
		// rejects them and the result is STILL allocated once — its spare
		// capacity, the rejected hits', is there to see (a copy-down leaves
		// none) and under an eighth of what was kept.
		if _, err := st.Delete("sliver"); err != nil {
			t.Fatal(err)
		}
		kept := search()
		rejected := len(all.Hits) - len(kept.Hits)
		if rejected <= 0 || rejected > len(kept.Hits)/8 {
			t.Fatalf("the sliver held %d of %d hits; the case needs a few", rejected, len(all.Hits))
		}
		if spare := cap(kept.Hits) - len(kept.Hits); spare != rejected {
			t.Fatalf("%d lanes, small tombstoned member: result has %d spare slots, want the %d rejected hits' (allocated once, not copied down)",
				lanes, spare, rejected)
		}

		// A tombstoned member with a third of the hits: now the copy-down
		// fires, so a cached result never pins more than 12.5% slack.
		if _, err := st.Delete("member01"); err != nil {
			t.Fatal(err)
		}
		third := search()
		if len(third.Hits) == 0 || len(third.Hits) > len(kept.Hits)*3/4 {
			t.Fatalf("member01 held %d of %d hits; the case needs a large share", len(kept.Hits)-len(third.Hits), len(kept.Hits))
		}
		if cap(third.Hits) != len(third.Hits) {
			t.Fatalf("%d lanes, large tombstoned member: result pins %d slots for %d hits", lanes, cap(third.Hits), len(third.Hits))
		}
		ss.Close()
	}
}

// topKSeqBySort is TopKSeq as it was — copy everything, sort it
// reflectively, cut — kept as the reference for the bounded selection.
func topKSeqBySort(hits []SeqHit, k int) []SeqHit {
	out := append([]SeqHit(nil), hits...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].TEnd != out[j].TEnd {
			return out[i].TEnd < out[j].TEnd
		}
		return out[i].QEnd < out[j].QEnd
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// TestTopKSeqMatchesFullSort: the bounded selection returns exactly
// what sorting everything returns — same hits, same order — on inputs
// in (TEnd, QEnd) order with heavy score ties (3 to 40 distinct scores
// over up to 2000 hits, so the tiebreak decides most of the cut), at
// every kind of k: ≤ 0, 1, around the buffer's refill points, n−1, n,
// beyond n. The input must come back untouched.
func TestTopKSeqMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		n := rng.Intn(2000)
		if trial < 20 {
			n = trial // the tiny inputs, empty included
		}
		distinct, rising := 3+rng.Intn(38), rng.Intn(3) == 0
		hits := make([]SeqHit, n)
		tEnd := 0
		for i := range hits {
			tEnd += rng.Intn(3)
			score := 20 + rng.Intn(distinct)
			if rising { // the selection's worst case: every hit beats the cut
				score = 20 + i*distinct/n
			}
			hits[i] = SeqHit{Hit: Hit{TEnd: tEnd, QEnd: i, Score: score}, Member: tEnd % 7, Name: "m", LocalTEnd: tEnd / 7}
		}
		orig := append([]SeqHit(nil), hits...)
		for _, k := range []int{-1, 0, 1, 2, 7, n / 3, n / 2, n - 1, n, n + 1, 1 + rng.Intn(n+1)} {
			got, want := TopKSeq(hits, k), topKSeqBySort(hits, k)
			if !seqHitsEqual(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("trial %d: n=%d k=%d: selection returned %d hits, the full sort %d, or they differ", trial, n, k, len(got), len(want))
			}
		}
		if !seqHitsEqual(hits, orig) {
			t.Fatalf("trial %d: TopKSeq modified its input", trial)
		}
	}
}
