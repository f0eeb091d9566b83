package alae

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/seq"
)

// saveLoadOneRecord persists text the one way there is — as a
// one-record store, through Save and LoadStore — and returns the
// reloaded store, with its query cache off so every search computes.
func saveLoadOneRecord(t *testing.T, text []byte) *Store {
	t.Helper()
	st, err := NewStore([]SeqRecord{{Name: "text", Seq: text}}, StoreOptions{QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(&buf, StoreOptions{QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.currentView().gens[0].ix.Text(); !bytes.Equal(got, text) {
		t.Fatal("text changed through save/load")
	}
	return loaded
}

// indexHitsEqual reports whether a one-record store's hits are an
// index's hits: same coordinates and scores, in the same order, all in
// member 0 with local coordinates equal to global ones.
func indexHitsEqual(got []SeqHit, want []Hit) bool {
	if len(got) != len(want) {
		return false
	}
	for i, sh := range got {
		if sh.Hit != want[i] || sh.Member != 0 || sh.LocalTEnd != want[i].TEnd {
			return false
		}
	}
	return true
}

func TestSaveLoadRoundTrip(t *testing.T) {
	text, query := workload(300, 3000, 400)
	want, err := NewIndex(text).Search(query, SearchOptions{Threshold: 20})
	if err != nil {
		t.Fatal(err)
	}
	loaded := saveLoadOneRecord(t, text)
	got, err := loaded.Search(query, SearchOptions{Threshold: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !indexHitsEqual(got.Hits, want.Hits) {
		t.Fatalf("loaded store returns %d hits, index %d", len(got.Hits), len(want.Hits))
	}
	// Every algorithm must work on a loaded store, including ones that
	// lazily build engines.
	for _, alg := range []Algorithm{BWTSW, BLAST} {
		if _, err := loaded.Search(query, SearchOptions{Algorithm: alg, Threshold: 20}); err != nil {
			t.Fatalf("%v on loaded store: %v", alg, err)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := decodeIndex(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := decodeIndex(bytes.NewReader([]byte("not an index at all, definitely"))); err == nil {
		t.Error("garbage accepted")
	}
	var good bytes.Buffer
	if err := encodeIndex(&good, NewIndex([]byte("ACGTACGTACGT"))); err != nil {
		t.Fatal(err)
	}
	// A huge claimed length must fail fast, not allocate terabytes.
	huge := append([]byte(nil), good.Bytes()...)
	binary.LittleEndian.PutUint64(huge[12:], 1<<62) // n, after magic, version and layout
	if _, err := decodeIndex(bytes.NewReader(huge)); err == nil {
		t.Error("implausible length accepted")
	}
	// An FM-index whose anchor disagrees with its BWT is rejected: the
	// text is rebuilt from the BWT and checked against every anchor.
	moved := append([]byte(nil), good.Bytes()...)
	moved[len(moved)-anchorTail(12)+8] ^= 1 // the low bit of anchor 0
	if _, err := decodeIndex(bytes.NewReader(moved)); err == nil || !strings.Contains(err.Error(), "anchor") {
		t.Errorf("an index whose anchor disagrees with its BWT was accepted (err=%v)", err)
	}
	// A payload must end where the index does: a store frame is decoded
	// in place, so a byte past the index is a framing error.
	if _, err := decodeIndex(bytes.NewReader(append(good.Bytes(), 0))); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("a trailing byte after the index was accepted (err=%v)", err)
	}
	if _, err := decodeIndex(bytes.NewReader(good.Bytes())); err != nil {
		t.Errorf("the encoder's own payload was rejected: %v", err)
	}
}

func TestReverseComplement(t *testing.T) {
	if got := ReverseComplement([]byte("ACGT")); string(got) != "ACGT" {
		t.Errorf("RC(ACGT) = %s (ACGT is its own reverse complement)", got)
	}
	if got := ReverseComplement([]byte("AACG")); string(got) != "CGTT" {
		t.Errorf("RC(AACG) = %s, want CGTT", got)
	}
	// Involution.
	rng := rand.New(rand.NewSource(301))
	s := randDNA(500, rng)
	if !bytes.Equal(ReverseComplement(ReverseComplement(s)), s) {
		t.Error("RC is not an involution")
	}
	// Non-DNA bytes survive.
	if got := ReverseComplement([]byte("A#T")); string(got) != "A#T" {
		t.Errorf("RC(A#T) = %s", got)
	}
	// Lowercase (soft-masked) bases complement case-preservingly: the
	// original table left them untouched, silently searching a wrong
	// reverse strand on soft-masked FASTA input.
	if got := ReverseComplement([]byte("acgt")); string(got) != "acgt" {
		t.Errorf("RC(acgt) = %s, want acgt", got)
	}
	if got := ReverseComplement([]byte("AAcg")); string(got) != "cgTT" {
		t.Errorf("RC(AAcg) = %s, want cgTT", got)
	}
	// IUPAC ambiguity codes map to their complements, both cases;
	// S, W, N are self-complementary.
	if got := ReverseComplement([]byte("RYKMBVDHSWN")); string(got) != "NWSDHBVKMRY" {
		t.Errorf("RC(RYKMBVDHSWN) = %s, want NWSDHBVKMRY", got)
	}
	if got := ReverseComplement([]byte("ANa")); string(got) != "tNT" {
		t.Errorf("RC(ANa) = %s, want tNT", got)
	}
	// Involution over the full IUPAC alphabet, mixed case.
	iupac := []byte("ACGTRYKMBVDHSWNacgtrykmbvdhswn")
	if !bytes.Equal(ReverseComplement(ReverseComplement(iupac)), iupac) {
		t.Error("RC is not an involution over IUPAC codes")
	}
	// Case-preservation commutes with case-folding.
	lower := bytes.ToLower(s)
	if !bytes.Equal(ReverseComplement(lower), bytes.ToLower(ReverseComplement(s))) {
		t.Error("lowercase RC diverges from case-folded RC")
	}
}

// reverseStrandHits searches query's reverse complement — the second
// of a both-strand search's two searches, the one that finds homology
// on the other strand.
func reverseStrandHits(t *testing.T, ix *Index, query []byte) []Hit {
	t.Helper()
	rev, err := ix.Search(ReverseComplement(query), SearchOptions{Threshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	return rev.Hits
}

func TestSearchBothStrands(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	text := randDNA(5000, rng)
	// Plant a reverse-complement copy: a forward-only search misses it.
	segment := text[1000:1100]
	query := append(randDNA(50, rng), append(ReverseComplement(segment), randDNA(50, rng)...)...)

	ix := NewIndex(text)
	if _, err := ix.Search(query, SearchOptions{Threshold: 40}); err != nil {
		t.Fatal(err)
	}
	if len(reverseStrandHits(t, ix, query)) == 0 {
		t.Error("planted reverse-strand homology not found")
	}
}

// TestSearchBothStrandsSoftMaskedAndN is the regression test for the
// complement-table bug: lowercase (soft-masked) and N-containing
// queries must still find reverse-strand homology. Before the fix,
// lowercase bases passed through ReverseComplement unchanged, so the
// reverse search ran against a reversed-but-uncomplemented strand and
// silently found nothing.
func TestSearchBothStrandsSoftMaskedAndN(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	text := randDNA(4000, rng)
	// Soft-mask a region, as repeat maskers emit it.
	for i := 1000; i < 1120; i++ {
		text[i] |= 0x20
	}
	ix := NewIndex(text) // σ=8: upper and lower case letters

	// A lowercase query homologous to the soft-masked region's reverse
	// strand: RC must complement case-preservingly for this to match.
	segment := text[1010:1110]
	query := append(randDNA(40, rng), append(ReverseComplement(segment), randDNA(40, rng)...)...)
	if len(reverseStrandHits(t, ix, query)) == 0 {
		t.Error("soft-masked reverse-strand homology not found")
	}

	// An N-containing query: N matches nothing (it is absent from the
	// text), but behaves as a mismatch inside an otherwise strong
	// reverse-strand alignment.
	nQuery := ReverseComplement(text[2000:2100])
	for _, p := range []int{20, 50, 80} {
		nQuery[p] = 'N'
	}
	if len(reverseStrandHits(t, ix, nQuery)) == 0 {
		t.Error("N-containing reverse-strand homology not found")
	}
}

func TestSearchAllMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	text := randDNA(10000, rng)
	queries := seq.HomologousQueries(seq.DNA, text, 6, 800, 100, 400,
		seq.MutationConfig{SubstitutionRate: 0.04}, rng)
	ix := NewIndex(text)
	opts := SearchOptions{Threshold: 25}

	parallel, err := ix.SearchAll(queries, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(parallel), len(queries))
	}
	for qi, q := range queries {
		seqRes, err := ix.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !align.EqualHits(parallel[qi].Hits, seqRes.Hits) {
			t.Fatalf("query %d: parallel and sequential disagree", qi)
		}
	}
}

// TestSearchAllFirstErrorDeterministic pins first-error determinism:
// when several queries fail in the same scheduling window on different
// workers, exactly the lowest-indexed failure is reported, every time.
// (The pre-fix implementation raced the failures on a boolean flag and
// could report whichever worker lost the race.) Run under -race this
// also exercises the CAS-min path concurrently.
func TestSearchAllFirstErrorDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	text := randDNA(2000, rng)
	ix := NewIndex(text)
	queries := make([][]byte, 24)
	for i := range queries {
		queries[i] = randDNA(60, rng)
	}
	// A block of adjacent failing queries (shorter than q): several
	// workers hit their errors in the same window.
	q := DefaultDNAScheme.Q()
	for _, bad := range []int{7, 8, 9, 10} {
		queries[bad] = randDNA(q-1, rng)
	}
	opts := SearchOptions{Threshold: 25}
	for round := 0; round < 8; round++ {
		res, err := ix.SearchAll(queries, opts, 4)
		if err == nil {
			t.Fatal("failing queries reported no error")
		}
		if res != nil {
			t.Fatal("results returned alongside an error")
		}
		if !strings.Contains(err.Error(), "query 7:") {
			t.Fatalf("round %d: reported %q, want the first failing query (7)", round, err)
		}
	}

	// A configuration error (an invalid scheme fails the options gate) applies
	// to every query: it must come back raw, not misattributed to a
	// "query N".
	bad := SearchOptions{Scheme: Scheme{Match: -1}, Threshold: 25}
	if _, err := ix.SearchAll(queries[:4], bad, 2); err == nil {
		t.Fatal("invalid scheme reported no error")
	} else if strings.Contains(err.Error(), "query ") {
		t.Fatalf("configuration error misattributed to a query: %q", err)
	}
}

func TestSearchAllEdgeCases(t *testing.T) {
	ix := NewIndex([]byte("ACGTACGTACGT"))
	res, err := ix.SearchAll(nil, SearchOptions{}, 0)
	if err != nil || res != nil {
		t.Errorf("empty query set: %v, %v", res, err)
	}
	// Errors propagate (BWT-SW + incompatible scheme).
	_, err = ix.SearchAll([][]byte{[]byte("ACGTACGT")}, SearchOptions{
		Algorithm: BWTSW,
		Scheme:    Scheme{Match: 1, Mismatch: -1, GapOpen: -5, GapExtend: -2},
		Threshold: 10,
	}, 2)
	if err == nil {
		t.Error("worker error not propagated")
	}
}
