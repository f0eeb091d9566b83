package alae

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/seq"
)

func randDNA(n int, rng *rand.Rand) []byte {
	letters := []byte("ACGT")
	out := make([]byte, n)
	for i := range out {
		out[i] = letters[rng.Intn(4)]
	}
	return out
}

// workload builds a text with a mutated copy of part of it as query.
func workload(seed int64, n, qlen int) (text, query []byte) {
	rng := rand.New(rand.NewSource(seed))
	text = randDNA(n, rng)
	query = seq.Mutate(seq.DNA, text[n/4:n/4+qlen],
		seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.01}, rng)
	return text, query
}

func TestAllExactAlgorithmsAgree(t *testing.T) {
	text, query := workload(200, 2000, 400)
	ix := NewIndex(text)
	var ref []Hit
	for _, alg := range []Algorithm{SmithWaterman, ALAE, BWTSW} {
		res, err := ix.Search(query, SearchOptions{Algorithm: alg, Threshold: 20})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Threshold != 20 {
			t.Fatalf("%v: threshold %d", alg, res.Threshold)
		}
		if ref == nil {
			ref = res.Hits
			if len(ref) == 0 {
				t.Fatal("vacuous workload")
			}
			continue
		}
		if !align.EqualHits(res.Hits, ref) {
			t.Fatalf("%v disagrees with Smith-Waterman: %d vs %d hits",
				alg, len(res.Hits), len(ref))
		}
	}
}

func TestBLASTFindsSubset(t *testing.T) {
	text, query := workload(201, 5000, 800)
	ix := NewIndex(text)
	exact, err := ix.Search(query, SearchOptions{Algorithm: ALAE, Threshold: 25})
	if err != nil {
		t.Fatal(err)
	}
	heur, err := ix.Search(query, SearchOptions{Algorithm: BLAST, Threshold: 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(heur.Hits) > len(exact.Hits) {
		t.Errorf("BLAST found %d > exact %d", len(heur.Hits), len(exact.Hits))
	}
	if heur.Stats.Seeds == 0 {
		t.Error("BLAST reported no seeds")
	}
}

func TestEValueThresholdDerivation(t *testing.T) {
	text, query := workload(202, 3000, 500)
	ix := NewIndex(text)
	res, err := ix.Search(query, SearchOptions{}) // all defaults: ALAE, E=10
	if err != nil {
		t.Fatal(err)
	}
	if res.Threshold <= DefaultDNAScheme.MinThreshold() {
		t.Errorf("derived threshold %d suspiciously low", res.Threshold)
	}
	// A stricter E-value must not lower the threshold.
	strict, err := ix.Search(query, SearchOptions{EValue: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Threshold <= res.Threshold {
		t.Errorf("E=1e-10 threshold %d not above E=10 threshold %d",
			strict.Threshold, res.Threshold)
	}
	if len(strict.Hits) > len(res.Hits) {
		t.Error("stricter threshold produced more hits")
	}
}

func TestBWTSWRejectsIncompatibleScheme(t *testing.T) {
	ix := NewIndex([]byte("ACGTACGTACGT"))
	_, err := ix.Search([]byte("ACGTACGT"), SearchOptions{
		Algorithm: BWTSW,
		Scheme:    Scheme{Match: 1, Mismatch: -1, GapOpen: -5, GapExtend: -2},
		Threshold: 10,
	})
	if err == nil {
		t.Error("BWT-SW accepted |sb| < 3|sa| (§2.4 forbids it)")
	}
}

func TestAlignTraceback(t *testing.T) {
	text, query := workload(204, 1500, 300)
	ix := NewIndex(text)
	res, err := ix.Search(query, SearchOptions{Threshold: 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits")
	}
	best := res.Hits[0]
	for _, h := range res.Hits {
		if h.Score > best.Score {
			best = h
		}
	}
	a, err := ix.Align(query, Scheme{}, best)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != best.Score || a.TEnd != best.TEnd {
		t.Errorf("alignment %+v does not match hit %+v", a, best)
	}
	if out := ix.FormatAlignment(a, query, 60); out == "" {
		t.Error("empty formatted alignment")
	}
}

func TestIndexAccessors(t *testing.T) {
	text := []byte("ACGTACGTACGTACGT")
	ix := NewIndex(text)
	if ix.Len() != len(text) {
		t.Errorf("Len = %d", ix.Len())
	}
	if ix.SizeBytes() <= 0 || ix.PackedSizeBytes() <= 0 {
		t.Error("index sizes must be positive")
	}
	// Lemma 1 is answered by the FM-index, so no domination table is
	// resident; the scheme is still checked.
	if ds, err := ix.DominationIndexSize(DefaultDNAScheme); err != nil || ds != 0 {
		t.Errorf("domination index size %d, err %v; want 0 and no error", ds, err)
	}
	if _, err := ix.DominationIndexSize(Scheme{Match: -1, Mismatch: 1, GapOpen: 1, GapExtend: 1}); err == nil {
		t.Error("invalid scheme accepted by DominationIndexSize")
	}
}

func TestUnknownAlgorithmAndBadScheme(t *testing.T) {
	ix := NewIndex([]byte("ACGTACGT"))
	if _, err := ix.Search([]byte("ACGT"), SearchOptions{Algorithm: Algorithm(99), Threshold: 5}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := ix.Search([]byte("ACGT"), SearchOptions{Scheme: Scheme{Match: -1, Mismatch: 1, GapOpen: 1, GapExtend: 1}}); err == nil {
		t.Error("invalid scheme accepted")
	}
	// The same configuration errors on the store, and BWT-SW's scheme
	// floor on both surfaces.
	st, err := NewStore([]SeqRecord{{Name: "a", Seq: bytes.Repeat([]byte("ACGT"), 16)}}, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	query := []byte("ACGTACGTACGTACGT")
	for _, opts := range []SearchOptions{
		{Algorithm: Algorithm(97)},
		{Scheme: Scheme{Match: -1}},
		{Algorithm: BWTSW, Scheme: Scheme{Match: 1, Mismatch: -1, GapOpen: -5, GapExtend: -2}, Threshold: 10},
	} {
		if _, err := ix.Search(query, opts); err == nil {
			t.Errorf("Index.Search accepted %+v", opts)
		}
		if _, err := st.Search(query, opts); err == nil {
			t.Errorf("Store.Search accepted %+v", opts)
		}
	}
	for _, alg := range []Algorithm{ALAE, BWTSW, BLAST, SmithWaterman, Algorithm(99)} {
		if alg.String() == "" {
			t.Error("empty algorithm name")
		}
	}
}

func TestAblationOptionsStayExact(t *testing.T) {
	text, query := workload(205, 1200, 250)
	ix := NewIndex(text)
	ref, err := ix.Search(query, SearchOptions{Threshold: 18})
	if err != nil {
		t.Fatal(err)
	}
	abl, err := ix.Search(query, SearchOptions{
		Threshold:           18,
		DisableScoreFilter:  true,
		DisableDomination:   true,
		DisableLengthFilter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !align.EqualHits(ref.Hits, abl.Hits) {
		t.Error("ablated filters changed the answer set")
	}
	if abl.Stats.CalculatedEntries < ref.Stats.CalculatedEntries {
		t.Error("filters increased the work")
	}
}

func TestConcurrentSearches(t *testing.T) {
	text, _ := workload(206, 3000, 1)
	ix := NewIndex(text)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			q := seq.Mutate(seq.DNA, text[100:400],
				seq.MutationConfig{SubstitutionRate: 0.04}, rng)
			_, err := ix.Search(q, SearchOptions{Threshold: 20})
			done <- err
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
