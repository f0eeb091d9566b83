package alae

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/seq"
)

// Fuzz targets: robustness of the parsing/deserialisation surfaces and
// a differential fuzzer pinning the exactness invariant. `go test`
// runs them over the seed corpus; `go test -fuzz=FuzzX` explores.

// FuzzReadFASTA must never panic, whatever bytes arrive.
func FuzzReadFASTA(f *testing.F) {
	f.Add([]byte(">a\nACGT\n"))
	f.Add([]byte("ACGT"))
	f.Add([]byte(">"))
	f.Add([]byte(">x\n>y\nAC\n\n>z"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := seq.ReadFASTA(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parsed must round-trip.
		var buf bytes.Buffer
		if err := seq.WriteFASTA(&buf, recs, 60); err != nil {
			t.Fatalf("WriteFASTA on parsed records: %v", err)
		}
	})
}

// FuzzLoad must reject arbitrary bytes cleanly (no panic, no runaway
// allocation) and accept its own output.
func FuzzLoad(f *testing.F) {
	ix := NewIndex([]byte("ACGTACGTACGTACGT"))
	var good bytes.Buffer
	if err := ix.Save(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully loaded index must be usable.
		if _, err := loaded.Search([]byte("ACGTACGT"), SearchOptions{Threshold: 4}); err != nil {
			t.Fatalf("search on loaded index: %v", err)
		}
	})
}

// FuzzLoadStore hammers the store manifest loader: arbitrary bytes —
// seeded with a real saved store plus truncations and bit-flips of it
// — must be rejected cleanly (no panic, no runaway allocation), and
// any bytes that DO load must produce a searchable store. This is the
// same loader the serving daemon's reload job trusts to keep a corrupt
// file from taking down a running server.
func FuzzLoadStore(f *testing.F) {
	st, err := NewStore([]SeqRecord{
		{Name: "alpha", Seq: []byte("ACGTACGTACGTACGTACGT")},
		{Name: "beta", Seq: []byte("TTTTACGTACGTGGGG")},
		{Name: "gamma", Seq: []byte("ACACACACACACAC")},
	}, StoreOptions{Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	var good bytes.Buffer
	if err := st.Save(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	// A multi-generation manifest with tombstones: the surface the
	// generational store adds (appended generation, deleted member).
	if err := st.Append([]SeqRecord{{Name: "delta", Seq: []byte("GGGGTTTTCCCCAAAA")}}); err != nil {
		f.Fatal(err)
	}
	if _, err := st.Delete("beta"); err != nil {
		f.Fatal(err)
	}
	var mutated bytes.Buffer
	if err := st.Save(&mutated); err != nil {
		f.Fatal(err)
	}
	f.Add(mutated.Bytes())
	// Truncations at awkward places: inside the magic, the manifest,
	// the generation table, a payload.
	for _, src := range []*bytes.Buffer{&good, &mutated} {
		for _, frac := range []int{1, 4, 7, 10, 13, 20, 40, 60, 80, 99} {
			n := src.Len() * frac / 100
			f.Add(append([]byte(nil), src.Bytes()[:n]...))
		}
		// Bit-flips sweeping the file: header, stamp, counts, flags,
		// lengths, payloads.
		for pos := 0; pos < src.Len(); pos += 1 + src.Len()/16 {
			flipped := append([]byte(nil), src.Bytes()...)
			flipped[pos] ^= 1 << (pos % 8)
			f.Add(flipped)
		}
	}
	// The retired format versions 1 and 2 in an otherwise valid file:
	// both must be rejected.
	for _, v := range []byte{1, 2} {
		legacy := append([]byte(nil), good.Bytes()...)
		legacy[8] = v
		f.Add(legacy)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := LoadStore(bytes.NewReader(data), StoreOptions{})
		if err != nil {
			return
		}
		// Whatever loaded must serve: the directory is coherent and a
		// search runs without panicking.
		tab := loaded.Sequences()
		for i := 0; i < tab.Len(); i++ {
			_ = tab.Name(i)
			_ = tab.SeqLen(i)
		}
		if _, err := loaded.Search([]byte("ACGTACGT"), SearchOptions{Threshold: 8}); err != nil {
			t.Fatalf("search on loaded store: %v", err)
		}
	})
}

// FuzzSearchExactness is the differential fuzzer: for any DNA-mapped
// input, ALAE must agree with the Smith-Waterman oracle.
func FuzzSearchExactness(f *testing.F) {
	f.Add([]byte("GCTAGCTAGCATCG"), []byte("GCTAG"), uint8(0))
	f.Add([]byte("AAAAAAAAAA"), []byte("AAAA"), uint8(2))
	f.Fuzz(func(t *testing.T, text, query []byte, hOff uint8) {
		if len(text) == 0 || len(text) > 300 || len(query) > 150 {
			return
		}
		letters := "ACGT"
		for i := range text {
			text[i] = letters[int(text[i])%4]
		}
		for i := range query {
			query[i] = letters[int(query[i])%4]
		}
		s := align.DefaultDNA
		h := s.MinThreshold() + int(hOff%12)
		ix := NewIndex(text)
		res, err := ix.Search(query, SearchOptions{Threshold: h})
		if len(query) < s.Q() {
			// Too-short queries are diagnosed, not silently empty. The
			// empty set would be exact here (m·sa < MinThreshold ≤ H),
			// so nothing is lost by rejecting.
			if err == nil {
				t.Fatalf("short query %q accepted", query)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		want := align.LocalAll(text, query, s, h)
		if !align.EqualHits(res.Hits, want) {
			t.Fatalf("exactness violated for T=%q P=%q H=%d:\n got %v\nwant %v",
				text, query, h, res.Hits, want)
		}
	})
}

// FuzzSchemeParsing exercises the CLI's scheme grammar indirectly via
// Scheme.Validate on arbitrary integer quadruples.
func FuzzSchemeParsing(f *testing.F) {
	f.Add(1, -3, -5, -2)
	f.Add(0, 0, 0, 0)
	f.Fuzz(func(t *testing.T, sa, sb, sg, ss int) {
		sch := Scheme{Match: sa, Mismatch: sb, GapOpen: sg, GapExtend: ss}
		err := sch.Validate()
		if err == nil {
			// Valid schemes must have coherent derived quantities.
			if sch.Q() < 1 {
				t.Errorf("valid scheme %v has q = %d", sch, sch.Q())
			}
			if sch.MinThreshold() < 1 {
				t.Errorf("valid scheme %v has floor %d", sch, sch.MinThreshold())
			}
			if sch.Lmax(100, 10) < 1 {
				t.Errorf("valid scheme %v has Lmax %d", sch, sch.Lmax(100, 10))
			}
		}
		_ = strings.Contains(sch.String(), ",") // String never panics
	})
}
