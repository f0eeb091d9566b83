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
// 5 bits each fill three words, so the samples a load packs straddle
// word boundaries, which the short seed texts' one sample word never
// does.
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
// its rank core, checksum and anchors, which is all a payload holds.
func indexTail(t testing.TB, ix *Index) int {
	n, err := ix.trie.Index().WriteTo(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return int(n)
}

// anchorTail returns how many bytes end the serialization of an
// FM-index over n characters at the default sample rate of 8 that hold
// its anchors' word count and words: the bytes only the LF chains of a
// load check. At that rate the anchored positions are the multiples of
// 512 below n, each held at bits.Len(n) bits.
func anchorTail(n int) int {
	count := uint(max(n-1, 0)/512 + 1)
	return 8 + 8*int((count*uint(bits.Len(uint(n)))+63)/64)
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
// strides used are 1 or prime, so the flipped bit walks through every
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

// indexSweeps returns corrupt copies of data, a store file or index
// payload whose last generation's index is ix: sparseFlips through its
// FM-index, every 499th bit of the whole index, then every bit of its
// anchors, and then each adjacent pair of anchors swapped, which keeps
// every anchor a plausible row. Only the LF chains of the load check
// the anchors against the BWT.
func indexSweeps(t testing.TB, data []byte, ix *Index) [][]byte {
	n := ix.Len()
	at := len(data) - anchorTail(n)
	out := sparseFlips(data, len(data)-indexTail(t, ix), len(data), 499)
	out = append(out, sparseFlips(data, at, len(data), 1)...)
	width := bits.Len(uint(n))
	// field reads (or, given v, writes) anchor k's bit b.
	field := func(b []byte, k, i int, v ...byte) byte {
		bit := 8*(at+8) + k*width + i
		if len(v) > 0 {
			b[bit/8] = b[bit/8]&^(1<<(bit%8)) | v[0]<<(bit%8)
		}
		return b[bit/8] >> (bit % 8) & 1
	}
	for k := 0; k+1 <= (n-1)/512; k++ {
		swapped := append([]byte(nil), data...)
		for i := range width {
			x, y := field(data, k, i), field(data, k+1, i)
			field(swapped, k, i, y)
			field(swapped, k+1, i, x)
		}
		out = append(out, swapped)
	}
	return out
}

// v5Index returns ix's FM-index in the retired index version 5, which
// held the position samples and their bitmap where version 6 holds the
// checksum and the anchors: the samples' bit width, word count and
// words — every position that is a multiple of the sample rate 8, as
// p/8 in row order, at bits.Len(n/8) bits — then the bitmap's word
// count and words, one bit per sampled row.
func v5Index(t testing.TB, ix *Index) []byte {
	fm := ix.trie.Index()
	var buf bytes.Buffer
	if _, err := fm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	n := ix.Len()
	out := buf.Bytes()[:buf.Len()-anchorTail(n)-4]
	binary.LittleEndian.PutUint32(out[4:], 5) // the version, after the magic
	width := bits.Len(uint(n / 8))
	samples := make([]uint64, ((n/8+1)*width+63)/64)
	mark := make([]uint64, (n+1+63)/64)
	j := 0
	for row := range fm.Rows() {
		if p := fm.Position(row); p%8 == 0 {
			mark[row/64] |= 1 << (row % 64)
			for b := range width {
				samples[(j*width+b)/64] |= uint64(p/8>>b&1) << ((j*width + b) % 64)
			}
			j++
		}
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(width))
	for _, words := range [][]uint64{samples, mark} {
		out = binary.LittleEndian.AppendUint64(out, uint64(len(words)))
		for _, w := range words {
			out = binary.LittleEndian.AppendUint64(out, w)
		}
	}
	return out
}

// v6Payload returns ix's index payload in the retired store version 6,
// which wrote the text (its length, then its bytes) before a version-5
// FM-index.
func v6Payload(t testing.TB, ix *Index) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(ix.Len()))
	return append(append(out, ix.text...), v5Index(t, ix)...)
}

// legacyStore returns the generations gens saved in a retired store
// version: 6, each generation's v6Payload behind its length, or 7,
// its version-5 FM-index alone.
func legacyStore(t testing.TB, gens []*generation, version uint32) []byte {
	var buf bytes.Buffer
	if err := writeStoreManifest(&buf, gens, 0); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(buf.Bytes()[8:], version)
	for _, g := range gens {
		payload := v5Index(t, g.ix)
		if version == 6 {
			payload = v6Payload(t, g.ix)
		}
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
// planes and a 200-base DNA payload, each also with every byte flipped
// (the checksum and anchors included), a multi-member DNA payload
// whose rank directory spans two superblocks and which has 66 anchors,
// with indexSweeps' sweeps of its FM-index and of its anchors, payloads
// in the older index versions 2 to 4, and each payload as store
// version 7 wrote it, a real version-5 FM-index, which must be rejected
// by name, and as store version 6 wrote it, text first, which must be
// rejected.
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
			for _, flipped := range indexSweeps(f, good.Bytes(), ix) {
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
		f.Add(v5Index(f, ix))
		f.Add(v6Payload(f, ix))
	}
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := decodeIndex(bytes.NewReader(data))
		// An index of another version ("ALAE", then the version) must
		// be rejected by name.
		if len(data) >= 8 && binary.LittleEndian.Uint32(data) == 0x414c4145 {
			if v := binary.LittleEndian.Uint32(data[4:]); v != 6 &&
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
	for _, flipped := range indexSweeps(f, twoSupers.Bytes(), big.currentView().gens[0].ix) {
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
	// The retired format versions 1 to 7 in an otherwise valid file,
	// and real version-6 and version-7 files, whose payloads hold
	// version-5 FM-indexes, version 6 the text before each: each must be
	// rejected by name.
	for _, v := range []byte{1, 2, 3, 4, 5, 6, 7} {
		legacy := append([]byte(nil), good.Bytes()...)
		legacy[8] = v
		f.Add(legacy)
	}
	for _, v := range []uint32{6, 7} {
		f.Add(legacyStore(f, st.currentView().gens, v))
		f.Add(legacyStore(f, big.currentView().gens, v))
	}
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
