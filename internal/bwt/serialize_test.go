package bwt

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/sais"
)

func buildTestIndex(t *testing.T, n int, seed int64) (*FMIndex, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	letters := []byte("ACGT")
	text := make([]byte, n)
	for i := range text {
		text[i] = letters[rng.Intn(4)]
	}
	return New(text), text
}

func TestSerializeRoundTrip(t *testing.T) {
	fm, text := buildTestIndex(t, 5000, 120)
	var buf bytes.Buffer
	written, err := fm.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if written != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, buffer has %d", written, buf.Len())
	}
	back, _, err := ReadFMIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != fm.Len() || back.Sigma() != fm.Sigma() {
		t.Fatalf("dimensions changed: %v vs %v", back, fm)
	}
	// Behavioural equality: counts and locates agree on many probes.
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 200; trial++ {
		l := 1 + rng.Intn(10)
		start := rng.Intn(len(text) - l)
		pat := text[start : start+l]
		lo1, hi1 := fm.Search(pat)
		lo2, hi2 := back.Search(pat)
		if lo1 != lo2 || hi1 != hi2 {
			t.Fatalf("Search(%q) differs after round trip", pat)
		}
		p1 := fm.Locate(lo1, min(hi1, lo1+5))
		p2 := back.Locate(lo2, min(hi2, lo2+5))
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("Locate(%q) differs after round trip", pat)
			}
		}
	}
}

func TestSerializeEmptyAndTiny(t *testing.T) {
	for _, text := range [][]byte{nil, []byte("A"), []byte("AC")} {
		fm := New(text)
		var buf bytes.Buffer
		if _, err := fm.WriteTo(&buf); err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		back, _, err := ReadFMIndex(&buf)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if back.Len() != len(text) {
			t.Errorf("%q: length %d after round trip", text, back.Len())
		}
	}
}

func TestSerializeRejectsCorruption(t *testing.T) {
	fm, _ := buildTestIndex(t, 1000, 122)
	var buf bytes.Buffer
	if _, err := fm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Truncations at many offsets must all fail, never panic.
	for _, cut := range []int{0, 3, 8, 20, len(good) / 2, len(good) - 1} {
		if _, _, err := ReadFMIndex(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, _, err := ReadFMIndex(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Bad version.
	bad = append([]byte(nil), good...)
	bad[4] = 99
	if _, _, err := ReadFMIndex(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
	// The previous on-disk version (1, which predates the rank-layout
	// tag) must be rejected with a version message, not misparsed.
	bad = append([]byte(nil), good...)
	bad[4] = 1
	if _, _, err := ReadFMIndex(bytes.NewReader(bad)); err == nil {
		t.Error("version-1 index accepted")
	} else if !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version-1 rejection unclear: %v", err)
	}
	// Unknown rank-layout tag (bytes 8..11 of the v2 header).
	bad = append([]byte(nil), good...)
	bad[8] = 77
	if _, _, err := ReadFMIndex(bytes.NewReader(bad)); err == nil {
		t.Error("unknown layout tag accepted")
	}
	// Layout tag inconsistent with the alphabet (plane tag on σ=4).
	bad = append([]byte(nil), good...)
	bad[8] = 2
	if _, _, err := ReadFMIndex(bytes.NewReader(bad)); err == nil {
		t.Error("layout tag inconsistent with σ accepted")
	}
	// Implausible n (length field blown up). In the v2 header n is the
	// uint64 at bytes 12..19, after magic, version and the layout tag.
	bad = append([]byte(nil), good...)
	for i := 12; i < 20; i++ {
		bad[i] = 0xff
	}
	if _, _, err := ReadFMIndex(bytes.NewReader(bad)); err == nil {
		t.Error("implausible n accepted")
	}
}

func TestSerializeProteinAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	letters := []byte("ACDEFGHIKLMNPQRSTVWY")
	text := make([]byte, 2000)
	for i := range text {
		text[i] = letters[rng.Intn(len(letters))]
	}
	fm := New(text)
	var buf bytes.Buffer
	if _, err := fm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadFMIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Sigma() != 20 {
		t.Errorf("σ = %d after round trip", back.Sigma())
	}
	if back.Count(text[100:110]) != fm.Count(text[100:110]) {
		t.Error("counts differ after round trip")
	}
}

// payloadOffsets returns where a serialized index's separator-row list
// and its core words begin: after the 36-byte header, the letters and,
// for the core, the list.
func payloadOffsets(fm *FMIndex) (sepsAt, coreAt int) {
	sepsAt = 36 + 4 + fm.Sigma() + 8
	nSeps := 0
	if fm.pk != nil {
		nSeps = len(fm.pk.seps)
	}
	return sepsAt, sepsAt + 4*nSeps + 8
}

// anchorsOffset returns where a serialized index's anchor section (its
// word count, then the words, which end the payload) begins.
func anchorsOffset(fm *FMIndex, payload int) int {
	_, _, _, words := anchorLayout(fm.n, fm.sampleRate)
	return payload - 8*words - 8
}

// TestSerializeRejectsCorruptCore corrupts a version-6 payload in each
// way a load must catch: the core's word count, data bits past the last
// row on either core, the separator list's order, a listed row holding
// a letter, a plane code outside the alphabet, a checksum that does
// not match the bytes before it, an anchor word count
// other than n's, a set padding bit past the last anchor, an anchor
// past the last row, and the older format versions — version 4 held
// the rank directory's checkpoints, which a load now rebuilds, so no
// file can carry an inconsistent one, and version 5 the position
// samples and their bitmap, which a load now rebuilds too.
func TestSerializeRejectsCorruptCore(t *testing.T) {
	text := storeText(12, 10, 40, 5)
	fm := New(text)
	var buf bytes.Buffer
	if _, err := fm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	sepsAt, coreAt := payloadOffsets(fm)
	// word returns data word i of the core, counted over the data words
	// the payload holds: prDataWords per packed block.
	word := func(data []byte, i int) []byte { return data[coreAt+8*i : coreAt+8*i+8] }
	mutate := func(name, wantErr string, f func(b []byte)) {
		t.Helper()
		bad := append([]byte(nil), good...)
		f(bad)
		_, _, err := ReadFMIndex(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("%s: %v, want an error naming %q", name, err, wantErr)
		}
	}
	if _, _, err := ReadFMIndex(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	mutate("core words", "packed core of", func(b []byte) { b[coreAt-8]++ })
	lastBlock := fm.Rows() / prRowsPerBlock
	mutate("padding", "past the last row", func(b []byte) { word(b, lastBlock*prDataWords+prDataWords-1)[7] |= 0x80 })
	mutate("separator order", "out of order", func(b []byte) {
		copy(b[sepsAt:sepsAt+4], b[sepsAt+4:sepsAt+8])
	})
	sep0 := int(fm.pk.seps[0])
	letterRow := sep0 + 1
	for fm.pk.at(letterRow) == 0 {
		letterRow++
	}
	mutate("separator on a letter", "holds a letter", func(b []byte) {
		b[sepsAt] = byte(letterRow) // seps[0] < 256 here, and letterRow < seps[1]
	})
	mutate("version 2", "version 2", func(b []byte) { b[4] = 2 })
	mutate("version 3", "version 3", func(b []byte) { b[4] = 3 })
	mutate("version 4", "version 4", func(b []byte) { b[4] = 4 })
	mutate("version 5", "version 5", func(b []byte) { b[4] = 5 })

	anchorsAt := anchorsOffset(fm, len(good))
	mutate("checksum", "checksum", func(b []byte) { b[anchorsAt-4] ^= 1 })
	mutate("anchor words", "anchor words", func(b []byte) { b[anchorsAt]++ })
	mutate("anchor padding", "past the last anchor", func(b []byte) { b[len(b)-1] |= 0x80 })
	// Anchor 0 is the bits [0, width) of the first word.
	_, count, width, _ := anchorLayout(fm.n, fm.sampleRate)
	if count != 1 || 1<<width-1 <= fm.n {
		t.Fatalf("%d anchors of %d bits: no anchor past row n = %d fits", count, width, fm.n)
	}
	mutate("anchor row", "past the last row", func(b []byte) {
		for bit := range width {
			b[anchorsAt+8+int(bit/8)] |= 1 << (bit % 8)
		}
	})

	prot := New(randomText([]byte("ACDEFGHIKLMNPQRSTVWY"), 300, 6))
	buf.Reset()
	if _, err := prot.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good = buf.Bytes()
	_, coreAt = payloadOffsets(prot)
	// The 301 rows end in the third block, whose rows from 301 on are
	// padding. Code 31 at row 299 is outside σ = 20.
	data := prot.pl.nPlanes * plDataWords // data words per block
	group := func(row int) int { return row/plRowsPerBlock*data + row%plRowsPerBlock/plRowsPerWord*prot.pl.nPlanes }
	mutate("plane code", "outside the alphabet", func(b []byte) {
		for pl := 0; pl < prot.pl.nPlanes; pl++ {
			word(b, group(299)+pl)[(299%plRowsPerWord)/8] |= 1 << (299 % 8)
		}
	})
	mutate("plane padding", "past the last row", func(b []byte) {
		word(b, group(301))[(301%plRowsPerWord)/8] |= 1 << (301 % 8)
	})
	mutate("plane core words", "plane core of", func(b []byte) { b[coreAt-8]-- })
}

// sameIndex fails t unless got — loaded and inverted — is the index
// want, bit for bit: the same serialization, the same position sample
// words and sample bitmap words, and every row at the same Position.
func sameIndex(t *testing.T, what string, got, want *FMIndex) {
	t.Helper()
	var a, b bytes.Buffer
	if _, err := got.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := want.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	switch {
	case !bytes.Equal(a.Bytes(), b.Bytes()):
		t.Fatalf("%s: the index serializes differently", what)
	case got.sampleBits != want.sampleBits || !slices.Equal(got.samples, want.samples):
		t.Fatalf("%s: the position sample words differ", what)
	case !slices.Equal(got.sampleMark.words, want.sampleMark.words) || !slices.Equal(got.sampleMark.super, want.sampleMark.super):
		t.Fatalf("%s: the sample bitmap differs", what)
	}
	for row := range want.Rows() {
		if got.Position(row) != want.Position(row) {
			t.Fatalf("%s: row %d at position %d, want %d", what, row, got.Position(row), want.Position(row))
		}
	}
}

// TestSerializeCoreBitFlips flips every bit of a multi-member DNA
// payload and of a protein payload, and every 61st bit of a store
// payload whose core spans two superblocks and every bit of its
// anchors, from the separator list through the core and the anchors:
// each flip either fails the load — the read or the inversion, which
// checks every anchor — or loads the built index bit for bit and
// rebuilds the original text byte for byte.
func TestSerializeCoreBitFlips(t *testing.T) {
	for _, tc := range []struct {
		text []byte
		step int
	}{
		{storeText(6, 20, 60, 7), 1},
		{randomText([]byte("ACDEFGHIKLMNPQRSTVWY"), 400, 8), 1},
		{storeText(400, 60, 130, 9), 61},
	} {
		fm := New(tc.text)
		if tc.step > 1 && fm.Rows() <= 1<<(superShift+7) {
			t.Fatalf("%d rows fit one superblock", fm.Rows())
		}
		var buf bytes.Buffer
		if _, err := fm.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		good := buf.Bytes()
		sepsAt, _ := payloadOffsets(fm)
		var flips []int
		for bit := 8 * sepsAt; bit < 8*len(good); bit += tc.step {
			flips = append(flips, bit)
		}
		if tc.step > 1 {
			for bit := 8 * anchorsOffset(fm, len(good)); bit < 8*len(good); bit++ {
				flips = append(flips, bit)
			}
		}
		accepted := 0
		for _, bit := range flips {
			bad := append([]byte(nil), good...)
			bad[bit/8] ^= 1 << (bit % 8)
			back, text, err := ReadFMIndex(bytes.NewReader(bad))
			if err != nil {
				continue
			}
			accepted++
			if !bytes.Equal(text, tc.text) {
				t.Fatalf("bit %d: the load rebuilt another text", bit)
			}
			sameIndex(t, fmt.Sprintf("bit %d", bit), back, fm)
		}
		t.Logf("σ=%d, %d rows: %d of %d flips loaded", fm.Sigma(), fm.Rows(), accepted, len(flips))
	}
}

// TestInvertRejectsBWTSwaps swaps every pair of adjacent, different
// BWT letters of a byte-layout index, the sentinel's row left alone.
// Such a swap keeps every letter count and exchanges the two rows' LF
// targets, which splits LF's one cycle in two, so every swap must fail
// the inversion; both ways a chain can fail — reaching $ early and
// landing off its anchor — must be seen.
func TestInvertRejectsBWTSwaps(t *testing.T) {
	text := randomText([]byte("ACGT"), 1200, 6)
	fm := NewWithOptions(text, Options{SampleRate: 4, ForceByteRank: true})
	anchors := fm.anchorRows()
	if len(anchors) < 3 {
		t.Fatalf("%d anchors; want chains from anchors as well as from row 0", len(anchors))
	}
	seen := map[string]int{}
	for row := 0; row+1 < fm.Rows(); row++ {
		a, b := fm.bwt[row], fm.bwt[row+1]
		if a == b || row == fm.sentinelRow || row+1 == fm.sentinelRow {
			continue
		}
		fm.bwt[row], fm.bwt[row+1] = b, a
		fm.occ = buildOcc(fm.bwt, fm.sentinelRow, fm.ckptEvery, fm.sigma)
		_, err := fm.invert(anchors)
		fm.bwt[row], fm.bwt[row+1] = a, b
		switch {
		case err == nil:
			t.Fatalf("rows %d and %d swapped: the inversion passed", row, row+1)
		case strings.Contains(err.Error(), "reaches $"):
			seen["reaches $"]++
		case strings.Contains(err.Error(), "lands on"):
			seen["lands on"]++
		default:
			t.Fatalf("rows %d and %d swapped: %v", row, row+1, err)
		}
	}
	if seen["reaches $"] == 0 || seen["lands on"] == 0 {
		t.Fatalf("the swaps failed as %v; want both chain checks seen", seen)
	}
	t.Logf("%v", seen)
}

// TestInvertRebuildsText loads indexes of every rank layout — packed
// with and without separator rows, planes, bytes — at several sample
// rates and lengths from empty to 1 000 characters, lengths beside an
// anchor stride among them, and holds the rebuilt text to the original
// byte for byte and the rebuilt index to the built one bit for bit:
// its position sample words, its sample bitmap words and every row's
// Position; every index states its serialized size exactly, and a
// ForceByteRank index serializes as the built one does. A text long enough to split across two workers must be
// split and load whole, and fail with two of the second worker's
// anchors swapped. Then it moves anchors the way a corrupt payload
// could, each failing with the message of its check: two anchors
// swapped, anchor 0 off the sentinel row, and an anchor moved one LF
// step.
func TestInvertRebuildsText(t *testing.T) {
	wide := make([]byte, 0, 600)
	for i := range 600 {
		wide = append(wide, byte(33+i*7%90))
	}
	texts := [][]byte{
		{}, []byte("A"), []byte("ACGTACGT"),
		randomText([]byte("ACGT"), 511, 1),
		randomText([]byte("ACGT"), 512, 1),
		randomText([]byte("ACGT"), 513, 1),
		randomText([]byte("ACGT"), 768, 1),
		randomText([]byte("ACGT"), 1000, 1),
		storeText(9, 10, 70, 2),
		randomText([]byte("ACDEFGHIKLMNPQRSTVWY"), 700, 3),
		wide,
	}
	for _, text := range texts {
		for _, rate := range []int{1, 3, 8, 32} {
			built := NewWithOptions(text, Options{SampleRate: rate})
			var buf, bytesLayout bytes.Buffer
			if _, err := built.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s, rate %d", built, rate)
			// A ForceByteRank index writes the same bytes, and both
			// state their size.
			forced := NewWithOptions(text, Options{SampleRate: rate, ForceByteRank: true})
			if _, err := forced.WriteTo(&bytesLayout); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bytesLayout.Bytes(), buf.Bytes()) {
				t.Fatalf("%s: the byte layout serializes differently", what)
			}
			if built.SerializedSize() != int64(buf.Len()) || forced.SerializedSize() != int64(buf.Len()) {
				t.Fatalf("%s: SerializedSize %d and %d, WriteTo wrote %d", what, built.SerializedSize(), forced.SerializedSize(), buf.Len())
			}
			loaded, got, err := ReadFMIndex(&buf)
			if err != nil || !bytes.Equal(got, text) {
				t.Fatalf("%s: loaded %d bytes (err=%v), want the %d-byte text", what, len(got), err, len(text))
			}
			sameIndex(t, what, loaded, built)
		}
	}

	// A text long enough to split across two workers loads whole, and
	// fails when two anchors among the second worker's chains swap.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	long := randomText([]byte("ACGT"), 2*invertSplitChars+77, 5)
	if w := invertWorkers(len(long)); w != 2 {
		t.Fatalf("%d characters invert on %d workers, want 2", len(long), w)
	}
	fm := New(long)
	var buf bytes.Buffer
	if _, err := fm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, got, err := ReadFMIndex(bytes.NewReader(buf.Bytes()))
	if err != nil || !bytes.Equal(got, long) {
		t.Fatalf("the %d-character text did not load on two workers (err=%v)", len(long), err)
	}
	sameIndex(t, "two workers", loaded, fm)
	anchors := fm.anchorRows()
	last := len(anchors) - 1
	if second := 1 + (len(anchors)-1)/2; last-1 < second {
		t.Fatalf("%d anchors: the second worker walks fewer than two chains", len(anchors))
	}
	anchors[last-1], anchors[last] = anchors[last], anchors[last-1]
	if _, err := fm.invert(anchors); err == nil || !strings.Contains(err.Error(), "lands on") {
		t.Fatalf("two swapped anchors in the second worker's chains: %v", err)
	}

	// 1 300 characters at rate 8: anchors at positions 0, 512 and 1024;
	// the chain from row 0 walks first, then the chains from anchors 1
	// and 2 in one sweep, so each case meets its own check first.
	text := randomText([]byte("ACGT"), 1300, 4)
	for _, tc := range []struct {
		name, want string
		corrupt    func(fm *FMIndex, anchors []int32)
	}{
		{"two anchors swapped", "lands on", func(fm *FMIndex, a []int32) {
			a[1], a[2] = a[2], a[1]
		}},
		{"anchor 0 off the sentinel row", "not the sentinel row", func(fm *FMIndex, a []int32) {
			a[0] = int32((fm.sentinelRow + 1) % fm.Rows())
		}},
		{"an anchor moved one LF step", "reaches $", func(fm *FMIndex, a []int32) {
			a[1] = int32(fm.lf(int(a[1])))
		}},
	} {
		fm := New(text)
		anchors := fm.anchorRows()
		if len(anchors) != 3 {
			t.Fatalf("%d anchors, want 3", len(anchors))
		}
		if _, err := fm.invert(anchors); err != nil {
			t.Fatal(err)
		}
		tc.corrupt(fm, anchors)
		if _, err := fm.invert(anchors); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: inversion returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestPositionSamplesPacked checks the bit-packed samples against the
// suffix array they sample, built and reloaded: each is held at
// bits.Len(n/SampleRate) bits in exactly the words that need, and every
// row's Position and LocateAppend answer is its suffix's start. The
// lengths put n/SampleRate at 0 (no bits at all), just below and at a
// power of two, and where a value straddles two words.
func TestPositionSamplesPacked(t *testing.T) {
	for _, tc := range []struct{ n, rate int }{
		{0, 8}, {5, 8}, {8, 8}, {63, 8}, {64, 8}, {255, 1}, {256, 1}, {1000, 3}, {1337, 8}, {4100, 32},
	} {
		text := randomText([]byte("ACGT"), tc.n, int64(tc.n+tc.rate))
		sa := sais.Build(text)
		built := NewWithOptions(text, Options{SampleRate: tc.rate})
		var buf bytes.Buffer
		if _, err := built.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, _, err := ReadFMIndex(&buf)
		if err != nil {
			t.Fatalf("n=%d rate=%d: %v", tc.n, tc.rate, err)
		}
		width := uint(bits.Len(uint(tc.n / tc.rate)))
		words := (uint(tc.n/tc.rate+1)*width + 63) / 64
		for _, fm := range []*FMIndex{built, loaded} {
			if fm.sampleBits != width || uint(len(fm.samples)) != words {
				t.Fatalf("n=%d rate=%d: %d-bit samples in %d words, want %d bits in %d",
					tc.n, tc.rate, fm.sampleBits, len(fm.samples), width, words)
			}
			located := fm.LocateAppend(0, fm.Rows(), nil)
			for row := range fm.Rows() {
				want := tc.n
				if row > 0 {
					want = int(sa[row-1])
				}
				if got := fm.Position(row); got != want || located[row] != want {
					t.Fatalf("n=%d rate=%d row %d: Position %d, located %d, want %d",
						tc.n, tc.rate, row, got, located[row], want)
				}
			}
		}
	}
}
