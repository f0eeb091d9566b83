package alae

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/seq"
)

// Store acceptance tests: the member boundary, persistence, the query
// cache and the gather's allocations. That every store surface returns
// the exact hit set at any Parallelism is the differential harness's
// job (oracle_test.go).

// storeWorkload builds a multi-member database whose queries are
// homologous to segments placed well inside chosen members — far
// enough from member boundaries that no above-threshold alignment can
// reach a separator.
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

// TestStoreSingleRecordMatchesIndex pins the one-member case: a
// store over one record is the raw index — no separators, global
// coordinates equal to text coordinates, identical hit set and work —
// for every algorithm, the baselines' lanes included, through a fresh
// and then a pooled store session.
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
	st, err := NewStore([]SeqRecord{{Name: "only", Seq: text}}, StoreOptions{QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{ALAE, BWTSW, BLAST, SmithWaterman} {
		opts := SearchOptions{Algorithm: alg}
		want, err := ix.Search(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Hits) == 0 {
			t.Fatalf("%v: vacuous workload", alg)
		}
		for pass := 0; pass < 2; pass++ { // fresh, then pooled
			got, err := st.Search(query, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Threshold != want.Threshold {
				t.Fatalf("%v pass %d: threshold %d, index %d", alg, pass, got.Threshold, want.Threshold)
			}
			if !indexHitsEqual(got.Hits, want.Hits) {
				t.Fatalf("%v pass %d: %d hits, index %d", alg, pass, len(got.Hits), len(want.Hits))
			}
			for _, sh := range got.Hits {
				if sh.Name != "only" {
					t.Fatalf("%v pass %d: hit %+v in member %q", alg, pass, sh, sh.Name)
				}
			}
			if got.Stats.CalculatedEntries != want.Stats.CalculatedEntries {
				t.Fatalf("%v pass %d: entries %d, index %d", alg, pass, got.Stats.CalculatedEntries, want.Stats.CalculatedEntries)
			}
		}
		if alg != ALAE && !raceEnabled { // reported, not gated; -race's pool drops make it noise
			search := func() {
				if _, err := st.Search(query, opts); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("%v: a warm store search makes %.0f allocations", alg, testing.AllocsPerRun(2, search))
		}
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

	st, err := NewStore([]SeqRecord{{Name: "a", Seq: a}, {Name: "b", Seq: b}}, StoreOptions{})
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
// same hits, whatever the generation grouping or Parallelism.
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
		members[i] = randSeq(400)
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

	// The same logical store in four layouts: one generation searched at
	// Parallelism 1 and 2, and two multi-generation groupings that
	// historically changed which member the self-match bled into.
	var results []*StoreResult
	var layouts []string
	build := func(name string, groups [][]int, par int) {
		recsOf := func(grp []int) []SeqRecord {
			recs := make([]SeqRecord, len(grp))
			for i, m := range grp {
				recs[i] = recOf(m)
			}
			return recs
		}
		st, err := NewStore(recsOf(groups[0]), StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, grp := range groups[1:] { // each Append is its own generation
			if err := st.Append(recsOf(grp)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := st.Search(query, SearchOptions{Threshold: opts.Threshold, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		layouts = append(layouts, name)
	}
	build("one-gen-p1", [][]int{{0, 1, 2, 3}}, 1)
	build("one-gen-p2", [][]int{{0, 1, 2, 3}}, 2)
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

// TestStoreManifestRoundTrip saves and reloads a multi-member store
// and checks the directory and answers survive; corrupt files
// are rejected with a message, not a panic.
func TestStoreManifestRoundTrip(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 5, 2000, 250, 712)
	st, err := NewStore(wl.records, StoreOptions{})
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

	// Corruptions: bad magic, bad version, the retired versions 1 to 6
	// (and a real version-6 file, its payloads text first), truncated
	// payload, hostile member length.
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
	for _, v := range []byte{1, 2, 3, 4, 5, 6} {
		bad = append([]byte(nil), saved...)
		bad[8] = v
		_, err := LoadStore(bytes.NewReader(bad), StoreOptions{})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Fatalf("legacy version %d accepted or not named (err=%v)", v, err)
		}
	}
	if _, err := LoadStore(bytes.NewReader(v6Store(t, st.currentView().gens)), StoreOptions{}); err == nil || !strings.Contains(err.Error(), "version 6") {
		t.Fatalf("a version-6 store file was accepted or not named (err=%v)", err)
	}
	if _, err := LoadStore(bytes.NewReader(saved[:len(saved)/2]), StoreOptions{}); err == nil {
		t.Fatal("truncated store accepted")
	}
	// A hostile member length (the first member's seqLen field sits
	// after magic+version+stamp+genCount+genID+memberCount+nameLen+name
	// in the manifest layout) must be rejected by the plausibility bounds,
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
	// A manifest one character short of its generation's index: no text
	// is stored, so the index's own length is what the manifest must
	// match.
	bad = append([]byte(nil), saved...)
	binary.LittleEndian.PutUint64(bad[off:], uint64(st.Sequences().SeqLen(0)-1))
	if _, err := LoadStore(bytes.NewReader(bad), StoreOptions{}); err == nil ||
		!strings.Contains(err.Error(), "does not match manifest length") {
		t.Fatalf("a manifest shorter than its index accepted (err=%v)", err)
	}
}

// TestLoadStoreChecksSamples corrupts the position samples of a saved
// multi-member store's last generation in ways its letter counts
// cannot show — one sample's value off by one step, one sample-bitmap
// bit flipped, and one sample mark moved to the next row: each load
// must fail with a message naming the generation.
func TestLoadStoreChecksSamples(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 5, 2000, 250, 713)
	st, err := NewStore(wl.records[:3], StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(wl.records[3:]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	if _, err := LoadStore(bytes.NewReader(saved), StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	last := st.currentView().gens[1]
	n := last.ix.Len()
	samples, bitmap := sampleTail(n)
	samplesAt, bitmapAt := len(saved)-bitmap-samples, len(saved)-bitmap+8
	width := bits.Len(uint(n / 8))
	for _, tc := range []struct {
		name, want string
		corrupt    func(b []byte)
	}{
		{"a sample off by one step", "two rows hold the sample", func(b []byte) {
			bit := n / 8 / 2 * width // the low bit of the middle sample
			b[samplesAt+bit/8] ^= 1 << (bit % 8)
		}},
		{"a sample-bitmap bit", "popcount", func(b []byte) {
			b[bitmapAt+n/16] ^= 1 << 3
		}},
		{"a sample mark moved", "LF chain", func(b []byte) {
			for bit := 8 * (bitmapAt + n/16); ; bit++ {
				if b[bit/8]>>(bit%8)&1 == 1 && b[(bit+1)/8]>>((bit+1)%8)&1 == 0 {
					b[bit/8] ^= 1 << (bit % 8)
					b[(bit+1)/8] ^= 1 << ((bit + 1) % 8)
					return
				}
			}
		}},
	} {
		bad := append([]byte(nil), saved...)
		tc.corrupt(bad)
		_, err := LoadStore(bytes.NewReader(bad), StoreOptions{})
		if err == nil || !strings.Contains(err.Error(), tc.want) ||
			!strings.Contains(err.Error(), fmt.Sprintf("generation %d", last.id)) {
			t.Errorf("%s: the load returned %v, want an error naming generation %d and containing %q",
				tc.name, err, last.id, tc.want)
		}
	}
}

// TestStoreQueryCache covers the result-level cache: exact repeats are
// served from it with the hit/miss counters saying so, a disabled
// cache changes nothing but the counters, options changes miss (the
// fingerprint is part of the key), and eviction pressure never changes
// answers.
func TestStoreQueryCache(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 4, 1200, 150, 713)
	query := wl.queries[0]

	t.Run("repeat-hits", func(t *testing.T) {
		st, err := NewStore(wl.records, StoreOptions{})
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
		st, err := NewStore(wl.records, StoreOptions{QueryCacheSize: -1})
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
		ref, err := NewStore(wl.records, StoreOptions{QueryCacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		queries := make([][]byte, 4)
		for i := range queries {
			queries[i] = append([]byte(nil), query...)
			queries[i][i] = 'A' // distinct cache keys
		}
		// A budget that fits the largest result but not all four.
		var total, largest int64
		for _, q := range queries {
			res, err := ref.Search(q, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			size := entrySize(cacheKey(ref.Stamp(), optionsFingerprint(SearchOptions{}), q), res)
			total, largest = total+size, max(largest, size)
		}
		budget := max(total/2, largest)
		st, err := NewStore(wl.records, StoreOptions{QueryCacheSize: int(budget)})
		if err != nil {
			t.Fatal(err)
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
			if n := len(st.cache.m); n == len(queries) || st.cache.bytes > budget {
				t.Fatalf("cache holds %d of %d results charged %d bytes, budget %d", n, len(queries), st.cache.bytes, budget)
			}
		}
	})
}

// TestQueryCacheByteBudget pins the cache's one bound with no job
// running: whatever is inserted, the live entries are never charged
// more than the byte budget, a result charged more than the whole
// budget is not cached, an evicting put keeps the entry it inserts and
// the one inserted before it, and zero-hit results are not free.
func TestQueryCacheByteBudget(t *testing.T) {
	result := func(hits int) *StoreResult { return &StoreResult{Hits: make([]SeqHit, hits)} }
	key := func(i int) string { return cacheKey(1, "fp", []byte(fmt.Sprintf("query-%05d", i))) }
	qc := newQueryCache(int(8 * entrySize(key(0), result(500))))
	check := func(what string) {
		t.Helper()
		var charged, hits int64
		for _, e := range qc.m {
			charged += e.size
			hits += int64(len(e.res.Hits))
		}
		if charged != qc.bytes || hits != qc.totalHits || len(qc.ring) != len(qc.m) {
			t.Fatalf("%s: books %d bytes / %d hits / %d ring slots, entries hold %d / %d / %d",
				what, qc.bytes, qc.totalHits, len(qc.ring), charged, hits, len(qc.m))
		}
		if qc.bytes > qc.budget {
			t.Fatalf("%s: %d bytes charged, budget %d", what, qc.bytes, qc.budget)
		}
	}
	for i := 0; i < 100; i++ {
		qc.put(key(i), result(500))
		check(fmt.Sprintf("put %d", i))
		for _, k := range []int{i, i - 1} {
			if k >= 0 && qc.m[key(k)] == nil {
				t.Fatalf("put %d evicted the entry of put %d", i, k)
			}
		}
	}
	if len(qc.m) != 8 {
		t.Fatalf("cache holds %d results, its budget fits 8", len(qc.m))
	}
	huge := cacheKey(1, "fp", []byte("huge"))
	qc.put(huge, result(int(qc.budget)/int(unsafe.Sizeof(SeqHit{}))))
	if qc.m[huge] != nil || len(qc.m) != 8 {
		t.Fatalf("a result over the whole budget was cached or evicted others (%d results)", len(qc.m))
	}
	for i := 100; i < 3000; i++ {
		qc.put(key(i), result(0))
		check(fmt.Sprintf("zero-hit put %d", i))
	}
	if n := len(qc.m); n == 0 || int64(n)*entryOverhead > qc.budget {
		t.Fatalf("%d zero-hit results cached under a %d-byte budget", n, qc.budget)
	}
	if qc.shed(0); len(qc.m) != 0 || qc.bytes != 0 {
		t.Fatalf("shed(0) left %d results charged %d bytes", len(qc.m), qc.bytes)
	}
}

// TestStoreQueryCacheConcurrent hammers one store from many goroutines
// mixing repeated and distinct queries; run under -race this is the
// data-race check for the cache and the session pools, and every
// result must equal the uncached reference.
func TestStoreQueryCacheConcurrent(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 4, 1500, 200, 714)
	ref, err := NewStore(wl.records, StoreOptions{QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	wants := make([][]SeqHit, len(wl.queries))
	var budget int64 // about two results, so that the goroutines' puts evict
	for qi, q := range wl.queries {
		res, err := ref.Search(q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wants[qi] = res.Hits
		budget = max(budget, 2*entrySize(cacheKey(ref.Stamp(), optionsFingerprint(SearchOptions{}), q), res))
	}
	st, err := NewStore(wl.records, StoreOptions{QueryCacheSize: int(budget)})
	if err != nil {
		t.Fatal(err)
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
	st, err := NewStore(wl.records, StoreOptions{})
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

// TestStoreShardsOption pins what is left of StoreOptions.Shards: 0
// and 1 are accepted and 2 is rejected, naming the one fan-out knob, by
// every constructor — NewStore, LoadStore and LoadStoreFile on a file
// and on a directory. And that knob, SearchOptions.Parallelism, far
// above a tiny store's family count answers exactly like 1.
func TestStoreShardsOption(t *testing.T) {
	if _, err := NewStore(nil, StoreOptions{}); err == nil {
		t.Fatal("NewStore accepted zero records")
	}
	seqBytes := []byte("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT")
	st, err := NewStore([]SeqRecord{{Name: "a", Seq: seqBytes}}, StoreOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append([]SeqRecord{{Name: "b", Seq: seqBytes}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "store.alae")
	if err := st.SaveFile(file); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveDir(filepath.Join(dir, "db")); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func(StoreOptions) (*Store, error){
		"NewStore":          func(o StoreOptions) (*Store, error) { return NewStore([]SeqRecord{{Name: "a", Seq: seqBytes}}, o) },
		"LoadStore":         func(o StoreOptions) (*Store, error) { return LoadStore(bytes.NewReader(buf.Bytes()), o) },
		"LoadStoreFile":     func(o StoreOptions) (*Store, error) { return LoadStoreFile(file, o) },
		"LoadStoreFile/dir": func(o StoreOptions) (*Store, error) { return LoadStoreFile(filepath.Join(dir, "db"), o) },
	} {
		for _, shards := range []int{0, 1} {
			if _, err := open(StoreOptions{Shards: shards}); err != nil {
				t.Fatalf("%s rejected Shards %d: %v", name, shards, err)
			}
		}
		if _, err := open(StoreOptions{Shards: 2}); err == nil || !strings.Contains(err.Error(), "SearchOptions.Parallelism") {
			t.Fatalf("%s with Shards 2: err = %v, want a rejection naming SearchOptions.Parallelism", name, err)
		}
	}

	query := seqBytes[:24]
	got, err := st.Search(query, SearchOptions{Parallelism: 7})
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.Search(query, SearchOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !seqHitsEqual(got.Hits, want.Hits) {
		t.Fatalf("Parallelism 7 hits diverge from 1 (%d vs %d)", len(got.Hits), len(want.Hits))
	}
	if got.Stats.CalculatedEntries != want.Stats.CalculatedEntries {
		t.Fatalf("Parallelism 7 entries %d, 1 entries %d", got.Stats.CalculatedEntries, want.Stats.CalculatedEntries)
	}
}

// TestOpenSessionValidatesEagerly pins that, for EVERY algorithm — the
// baselines included — a configuration error surfaces at the options
// gate, before any lane opens: the failed search builds no engine on the
// index and no session pool on the store.
func TestOpenSessionValidatesEagerly(t *testing.T) {
	ix := NewIndex([]byte("ACGTACGTACGTACGTACGTACGTACGT"))
	st, err := NewStore([]SeqRecord{{Name: "a", Seq: bytes.Repeat([]byte("ACGT"), 16)}}, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	query := []byte("ACGTACGTACGTACGT")
	var bad []SearchOptions
	for _, alg := range []Algorithm{ALAE, BWTSW, BLAST, SmithWaterman} {
		bad = append(bad,
			SearchOptions{Algorithm: alg, Threshold: -1},
			SearchOptions{Algorithm: alg, EValue: -2},
			SearchOptions{Algorithm: alg, Parallelism: -3},
			SearchOptions{Algorithm: alg, AlphabetSize: -1},
			SearchOptions{Algorithm: alg, AlphabetSize: 1},
		)
	}
	bad = append(bad,
		SearchOptions{Algorithm: Algorithm(97)},
		SearchOptions{Algorithm: BWTSW, Scheme: Scheme{Match: 1, Mismatch: -1, GapOpen: -5, GapExtend: -2}, Threshold: 10},
	)
	for _, opts := range bad {
		if _, err := resolveScheme(opts); err == nil {
			t.Errorf("resolveScheme accepted %+v", opts)
		}
		if _, err := ix.Search(query, opts); err == nil {
			t.Errorf("Index.Search accepted %+v", opts)
		}
		if _, err := ix.SearchAll([][]byte{query, query}, opts, 2); err == nil {
			t.Errorf("Index.SearchAll accepted %+v", opts)
		}
		if _, err := st.Search(query, opts); err == nil {
			t.Errorf("Store.Search accepted %+v", opts)
		}
		if _, err := st.SearchAll([][]byte{query, query}, opts, 2); err == nil {
			t.Errorf("Store.SearchAll accepted %+v", opts)
		}
	}
	if n := len(ix.alae); n != 0 {
		t.Errorf("rejected searches built %d engines, want 0", n)
	}
	st.mu.Lock()
	pools := len(st.pools)
	st.mu.Unlock()
	if pools != 0 {
		t.Errorf("rejected searches built %d session pools, want 0", pools)
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
	searchAllStarted = func(int) {
		mu.Lock()
		started++
		mu.Unlock()
	}
	defer func() { searchAllStarted = nil }()

	_, err = st.SearchAll(queries, SearchOptions{}, 2)
	if err == nil || !strings.Contains(err.Error(), "store query 0") {
		t.Fatalf("SearchAll error = %v, want the lowest failing index (0)", err)
	}
	if started > 4 {
		t.Fatalf("%d of %d queries were launched after the first error; cancellation is not stopping work", started, len(queries))
	}

	// A configuration error applies to every query: it comes back raw,
	// not misattributed to a "store query N", and launches nothing.
	started = 0
	_, err = st.SearchAll(queries, SearchOptions{Scheme: Scheme{Match: -1}}, 2)
	if err == nil || strings.Contains(err.Error(), "query ") {
		t.Fatalf("configuration error = %v, want it unattributed to any query", err)
	}
	if started != 0 {
		t.Fatalf("%d queries launched under a configuration error", started)
	}
}

// TestStoreGatherAllocBound pins the streaming gather's shape: a warm
// store session search materialises ONE hit slice — the caller's
// StoreResult.Hits — with no per-lane intermediate Result.Hits, bucket
// or scratch copy in between; each lane's table drains straight into
// it. The steady-state allocation count is therefore independent
// of how many hits the query produces. It is NOT independent of the
// lane count: a parallel search (core.Session.searchFamilies) costs its
// context list and wait group, and every work-stealing lane its context
// and goroutine closure; the lane workspaces, collector shards and the
// stealing cursor are session-owned and allocate nothing once warm.
// So the lane count is pinned — Parallelism explicit, never the NumCPU
// default, which made this gate machine-dependent — and the
// budget is stated per lane. The one hit slice stays one when the
// gather rejects a tombstoned member's few hits; it is copied down to
// size only when the slack would pass an eighth of the hits kept.
func TestStoreGatherAllocBound(t *testing.T) {
	wl := buildStoreWorkload(seq.DNA, 5, 1200, 200, 714)
	query := wl.queries[0]
	// A sixth member holding a sliver of the answer: 80 bases of the query
	// itself. Tombstoned, it makes the gather reject a few hits of many.
	records := append(wl.records, SeqRecord{Name: "sliver", Seq: query[100:180]})
	for _, lanes := range []int{1, 2} {
		st, err := NewStore(records, StoreOptions{QueryCacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		ss := openStoreSession(t, st, SearchOptions{Threshold: 60, Parallelism: lanes})
		search := func() *StoreResult {
			res, err := searchSession(context.Background(), ss, query)
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
		allocs := warmAllocsPerRun(5, func() { search() })
		// Measured search by search under work stealing: 2 at one lane
		// (the StoreResult and its Hits array), 10–11 at two, 13–19 at
		// three, 16–24 at four. Above two lanes the figure varies from
		// search to search, because stealing moves load between collector
		// shards and a shard shrunk by a light search regrows on the next.
		// The slack absorbs that; anything scaling with the hit count
		// (16 952 here) blows far past it. Under the race detector the
		// same 2 and 10–11 were measured: lane workspaces are
		// session-owned, not drawn from a sync.Pool, which drops a
		// quarter of what is Put into it under -race. The race budget
		// still allows every lane a workspace rebuild (~95 objects) on
		// every run — a per-lane figure, and 270 at two lanes against
		// 16 952 hits: one allocation per hit would exceed even that
		// budget 60 times over. The gate needs hits ≥ 20× its budget.
		const fixed, perLane, raceRebuild = 6, 4, 128
		budget := float64(fixed + perLane*lanes)
		if raceEnabled {
			budget += raceRebuild * float64(lanes)
		}
		if float64(len(all.Hits)) < 20*budget {
			t.Fatalf("%d hits against a budget of %.0f allocations: too few to tell a per-hit allocation", len(all.Hits), budget)
		}
		if allocs > budget {
			t.Fatalf("warm store session search at %d lanes allocated %.1f objects per query for %d hits (budget %.0f): the gather is materialising intermediates",
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

// TestStoreAlignInsideMember aligns hits inside their own member. In
// the probe, member a ends with P1 and member b starts with P2, and
// the query is P1·P2: across the separator the text reads P1#P2, so a
// traceback over the whole generation finds a path into member a that
// outscores member b's own hit and fails to align it ("no alignment of
// score 30 ends at (360,59)").
func TestStoreAlignInsideMember(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	p1, p2 := randDNA(30, rng), randDNA(30, rng)
	st, err := NewStore([]SeqRecord{
		{Name: "a", Seq: append(randDNA(300, rng), p1...)},
		{Name: "b", Seq: append(append([]byte(nil), p2...), randDNA(300, rng)...)},
	}, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	query := append(append([]byte(nil), p1...), p2...)
	res, err := st.Search(query, SearchOptions{Threshold: 20})
	if err != nil {
		t.Fatal(err)
	}
	aligned := map[string]bool{}
	tab := st.Sequences()
	for _, hit := range res.Hits {
		if hit.Score != 30 {
			continue
		}
		a, err := st.Align(query, Scheme{}, hit)
		if err != nil {
			t.Fatalf("member %s hit %+v: %v", hit.Name, hit, err)
		}
		start := tab.Start(hit.Member)
		if a.Score != 30 || a.TEnd != start+hit.LocalTEnd || a.QEnd != hit.QEnd ||
			a.TStart < start || a.TEnd >= start+tab.SeqLen(hit.Member) {
			t.Fatalf("member %s hit %+v aligned as %+v (member starts at %d)", hit.Name, hit, a, start)
		}
		if out := st.FormatAlignment(a, hit, query, 60); !strings.Contains(out, "score=30") {
			t.Fatalf("member %s: FormatAlignment:\n%s", hit.Name, out)
		}
		aligned[hit.Name] = true
	}
	if !aligned["a"] || !aligned["b"] {
		t.Fatalf("score-30 hits aligned: %v, want both members", aligned)
	}
}

// TestStoreGenerationsOnPackedCore pins where a generation's index
// lives: a multi-member DNA generation keeps the separator in its
// alphabet (σ = 5, letters "#ACGT", as every threshold and search
// sees it) but runs on the 2-bit packed core, and survives a save and
// load there.
func TestStoreGenerationsOnPackedCore(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	st, err := NewStore([]SeqRecord{
		{Name: "genome", Seq: randDNA(5000, rng)},
		{Name: "tiny", Seq: []byte("ACGT")},
	}, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(&buf, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Store{st, loaded} {
		fm := s.currentView().gens[0].ix.trie.Index()
		if fm.Sigma() != 5 || string(fm.Letters()) != "#ACGT" || !strings.Contains(fm.String(), "rank=packed2") {
			t.Fatalf("two-member DNA generation: σ %d, letters %q, %s", fm.Sigma(), fm.Letters(), fm)
		}
	}
}
