package alae

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/seq"
)

// Fuzz targets: robustness of the parsing/deserialisation surfaces
// (the exactness fuzzer, FuzzSearchExactness, is the store harness in
// oracle_test.go). `go test` runs them over the seed corpus;
// `go test -fuzz=FuzzX` explores.

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

// fuzzStores returns the stores the load fuzzers seed from, one
// generation each: a multi-member DNA store, whose packed core lists
// separator rows, and a protein store on the plane core.
func fuzzStores(f *testing.F) []*Store {
	var stores []*Store
	for _, recs := range [][]SeqRecord{
		{
			{Name: "alpha", Seq: []byte("ACGTACGTACGTACGTACGT")},
			{Name: "beta", Seq: []byte("TTTTACGTACGTGGGG")},
			{Name: "gamma", Seq: []byte("ACACACACACACAC")},
		},
		{
			{Name: "p1", Seq: []byte("MKVLAAGIVGLLLAHSACDEFGHIKLMNPQRSTVWY")},
			{Name: "p2", Seq: []byte("WYVTSRQPNMLKIHGFEDCAACGT")},
		},
	} {
		st, err := NewStore(recs, StoreOptions{})
		if err != nil {
			f.Fatal(err)
		}
		stores = append(stores, st)
	}
	return stores
}

// wideSampleDNA returns a 200-base DNA text: its 26 position samples of
// 5 bits each fill three words, so the bit-packed samples straddle word
// boundaries, which the short seed texts' one sample word never does.
func wideSampleDNA() []byte {
	return randDNA(200, rand.New(rand.NewSource(7)))
}

// twoSuperblockRecords returns four DNA members of 8 400 bases: a
// store text of 33 603 characters, whose rank directory spans two
// superblocks of 2¹⁵ rows and whose packed core lists three separator
// rows.
func twoSuperblockRecords() []SeqRecord {
	rng := rand.New(rand.NewSource(11))
	recs := make([]SeqRecord, 4)
	for i := range recs {
		recs[i] = SeqRecord{Name: fmt.Sprintf("s%d", i), Seq: randDNA(8400, rng)}
	}
	return recs
}

// indexTail returns how many bytes end data, a store file or index
// payload whose last generation's index is ix, that hold ix's FM-index:
// its rank core, samples and bitmap, which is all a payload holds.
func indexTail(t testing.TB, ix *Index) int {
	n, err := ix.trie.Index().WriteTo(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return int(n)
}

// sampleTail returns how many bytes end the serialization of an
// FM-index over n characters at the default sample rate of 8 that hold
// its position samples' words (samples) and its sample bitmap's word
// count and words (bitmap): the bytes the LF chains of a load check.
func sampleTail(n int) (samples, bitmap int) {
	count := uint(n/8 + 1)
	width := uint(bits.Len(uint(n / 8)))
	return 8 * int((count*width+63)/64), 8 + 8*((n+1+63)/64)
}

// addFlips seeds data with one bit flipped in each of its bytes from
// from on, so that the sweep covers the rank core's blocks.
func addFlips(f *testing.F, data []byte, from int) {
	for pos := from; pos < len(data); pos++ {
		flipped := append([]byte(nil), data...)
		flipped[pos] ^= 1 << (pos % 8)
		f.Add(flipped)
	}
}

// sparseFlips returns copies of data with one bit flipped in each,
// every stride-th bit from byte from up to byte to: a sweep whose seed
// count stays bounded on a payload too large to flip byte by byte. The
// strides used are prime, so the flipped bit walks through every
// position of a word.
func sparseFlips(data []byte, from, to, stride int) [][]byte {
	var out [][]byte
	for bit := 8 * from; bit < 8*to; bit += stride {
		flipped := append([]byte(nil), data...)
		flipped[bit/8] ^= 1 << (bit % 8)
		out = append(out, flipped)
	}
	return out
}

// indexFlips returns sparseFlips through the FM-index that ends data,
// a store file or index payload whose last generation's index is ix:
// every 499th bit of the whole index, then every 97th bit of its
// position samples and sample bitmap, which only the LF chains of the
// load check against the BWT.
func indexFlips(t testing.TB, data []byte, ix *Index) [][]byte {
	samples, bitmap := sampleTail(ix.Len())
	out := sparseFlips(data, len(data)-indexTail(t, ix), len(data), 499)
	return append(out, sparseFlips(data, len(data)-bitmap-8-samples, len(data), 97)...)
}

// v6Payload returns ix's index payload in the retired store version 6,
// which wrote the text (its length, then its bytes) before the
// FM-index.
func v6Payload(t testing.TB, ix *Index) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint64(ix.Len()))
	buf.Write(ix.text)
	if err := encodeIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v6Store returns the generations gens saved in the retired store
// version 6: the manifest, then each generation's v6Payload behind its
// length.
func v6Store(t testing.TB, gens []*generation) []byte {
	var buf bytes.Buffer
	if err := writeStoreManifest(&buf, gens, 0); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(buf.Bytes()[8:], 6)
	for _, g := range gens {
		payload := v6Payload(t, g.ix)
		binary.Write(&buf, binary.LittleEndian, uint64(len(payload)))
		buf.Write(payload)
	}
	return buf.Bytes()
}

// FuzzLoad drives the index-payload decoder a store's load runs per
// generation: it must reject arbitrary bytes cleanly (no panic, no
// runaway allocation) and accept the encoder's output, whose text it
// rebuilds from the BWT. Its seeds are a one-text DNA payload, a
// multi-member DNA payload with separator rows, a protein payload on
// planes and a one-text DNA payload whose samples straddle words, each
// also with every byte flipped (the bit-packed samples included), a
// multi-member DNA payload whose rank directory spans two superblocks,
// with indexFlips' sparse sweeps of its FM-index and of its samples,
// payloads in the older index versions 2 to 4, which must be rejected
// by name, and each payload as store version 6 wrote it, text first,
// which must be rejected.
func FuzzLoad(f *testing.F) {
	ixs := []*Index{NewIndex([]byte("ACGTACGTACGTACGT"))}
	for _, st := range fuzzStores(f) {
		ixs = append(ixs, st.currentView().gens[0].ix)
	}
	ixs = append(ixs, NewIndex(wideSampleDNA()))
	wide, err := NewStore(twoSuperblockRecords(), StoreOptions{})
	if err != nil {
		f.Fatal(err)
	}
	ixs = append(ixs, wide.currentView().gens[0].ix)
	for i, ix := range ixs {
		var good bytes.Buffer
		if err := encodeIndex(&good, ix); err != nil {
			f.Fatal(err)
		}
		f.Add(good.Bytes())
		if i == len(ixs)-1 {
			for _, flipped := range indexFlips(f, good.Bytes(), ix) {
				f.Add(flipped)
			}
		} else {
			addFlips(f, good.Bytes(), 0)
		}
		for _, v := range []byte{2, 3, 4} {
			old := append([]byte(nil), good.Bytes()...)
			old[4] = v // the index version, after the magic
			f.Add(old)
		}
		f.Add(v6Payload(f, ix))
	}
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := decodeIndex(bytes.NewReader(data))
		// An index of another version ("ALAE", then the version) must
		// be rejected by name.
		if len(data) >= 8 && binary.LittleEndian.Uint32(data) == 0x414c4145 {
			if v := binary.LittleEndian.Uint32(data[4:]); v != 5 &&
				(err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v))) {
				t.Fatalf("a version-%d index was not rejected by name: %v", v, err)
			}
		}
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
	}, StoreOptions{})
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
	var protein bytes.Buffer
	if err := fuzzStores(f)[1].Save(&protein); err != nil {
		f.Fatal(err)
	}
	f.Add(protein.Bytes())
	wide, err := NewStore([]SeqRecord{{Name: "wide", Seq: wideSampleDNA()}}, StoreOptions{})
	if err != nil {
		f.Fatal(err)
	}
	var wideSamples bytes.Buffer
	if err := wide.Save(&wideSamples); err != nil {
		f.Fatal(err)
	}
	f.Add(wideSamples.Bytes())
	// A store whose rank directory spans two superblocks, with a sparse
	// sweep of flips through its FM-index.
	big, err := NewStore(twoSuperblockRecords(), StoreOptions{})
	if err != nil {
		f.Fatal(err)
	}
	var twoSupers bytes.Buffer
	if err := big.Save(&twoSupers); err != nil {
		f.Fatal(err)
	}
	f.Add(twoSupers.Bytes())
	for _, flipped := range indexFlips(f, twoSupers.Bytes(), big.currentView().gens[0].ix) {
		f.Add(flipped)
	}
	// Truncations at awkward places: inside the magic, the manifest,
	// the generation table, a payload.
	for _, src := range []*bytes.Buffer{&good, &mutated, &protein, &wideSamples} {
		for _, frac := range []int{1, 4, 7, 10, 13, 20, 40, 60, 80, 99} {
			n := src.Len() * frac / 100
			f.Add(append([]byte(nil), src.Bytes()[:n]...))
		}
		// Bit-flips sweeping the file: header, stamp, counts, flags,
		// lengths, and every byte of the payloads' rank cores.
		addFlips(f, src.Bytes(), 0)
	}
	// The retired format versions 1 to 6 in an otherwise valid file,
	// and real version-6 files, whose payloads hold the text: each
	// must be rejected by name.
	for _, v := range []byte{1, 2, 3, 4, 5, 6} {
		legacy := append([]byte(nil), good.Bytes()...)
		legacy[8] = v
		f.Add(legacy)
	}
	f.Add(v6Store(f, st.currentView().gens))
	f.Add(v6Store(f, big.currentView().gens))
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := LoadStore(bytes.NewReader(data), StoreOptions{})
		checkVersionNamed(t, data, err)
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

// checkVersionNamed fails t when data is a store file or manifest of
// another format version and its load, which returned err, did not fail
// with an error naming that version.
func checkVersionNamed(t *testing.T, data []byte, err error) {
	t.Helper()
	if len(data) < 12 || !bytes.Equal(data[:8], storeMagic[:]) {
		return
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != storeVersion &&
		(err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v))) {
		t.Fatalf("a version-%d store was not rejected by name: %v", v, err)
	}
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
