package bwt

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/seq"
)

// storeText joins members random DNA members of minLen..maxLen bases
// with the store separator, as a store generation's text is laid out.
func storeText(members, minLen, maxLen int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var text []byte
	for m := 0; m < members; m++ {
		if m > 0 {
			text = append(text, seq.Separator)
		}
		for i := minLen + rng.Intn(maxLen-minLen+1); i > 0; i-- {
			text = append(text, "ACGT"[rng.Intn(4)])
		}
	}
	return text
}

// steerSentinel returns text with its first 12 bytes rewritten so that
// its sentinel row — one plus the number of its suffixes smaller than
// the whole text — falls in [lo, hi). It bisects on the head read as a
// base-4 number over ACGT: a larger head passes more of the rest's
// suffixes, give or take the head's own 12.
func steerSentinel(t *testing.T, text []byte, lo, hi int) []byte {
	t.Helper()
	text = append([]byte(nil), text...)
	const headLen = 12
	row := func(v int) int {
		for i := headLen - 1; i >= 0; i, v = i-1, v/4 {
			text[i] = "ACGT"[v%4]
		}
		r := 1
		for i := 1; i < len(text); i++ {
			if bytes.Compare(text[i:], text) < 0 {
				r++
			}
		}
		return r
	}
	for a, b := 0, 1<<(2*headLen)-1; a <= b; {
		mid := (a + b) / 2
		switch r := row(mid); {
		case r < lo:
			a = mid + 1
		case r >= hi:
			b = mid - 1
		default:
			return text
		}
	}
	t.Fatalf("no head puts the sentinel row in [%d, %d)", lo, hi)
	return nil
}

// separatorRows lists the rows whose BWT letter is the separator.
func separatorRows(fm *FMIndex) []int {
	var rows []int
	for row := 0; row < fm.Rows(); row++ {
		if row != fm.sentinelRow && fm.bwtCode(row) == 0 {
			rows = append(rows, row)
		}
	}
	return rows
}

// TestPackedSeparatorsMatchByteRank is the property test of the packed
// core's separator rows: on store texts with 1 to 10 000 separators
// every query surface of the default index — Rank, Rank2, RanksAll,
// RanksAll2, ExtendAll, LFStep, Locate — equals the byte-scan layout's,
// where the separator is an ordinary code. The directed texts put
// separator rows at the 127/128 block edge, beside the sentinel row,
// next to each other and in the first and the last block of a
// superblock of the rank directory, and the sentinel row in the last
// block before a superblock edge and in the first after it; the
// one-base-member store makes half of all rows separators.
func TestPackedSeparatorsMatchByteRank(t *testing.T) {
	oneBase := bytes.Repeat([]byte("A#"), 100)
	oneBase = append(oneBase, 'A')
	mixedOneBase := []byte(strings.Repeat("A#C#G#T#", 60) + "A")
	cases := []struct {
		name string
		text []byte
	}{
		{"one-separator", storeText(2, 300, 300, 1)},
		{"two-members-one-base", []byte("A#C")},
		{"one-base-members", oneBase},
		{"one-base-members-acgt", mixedOneBase},
		{"identical-members", bytes.Repeat([]byte("ACGTTGCA#"), 50)[:9*50-1]},
		{"short-members", storeText(400, 1, 6, 2)},
		{"64-members", storeText(64, 20, 200, 3)},
		{"10000-separators", storeText(10001, 1, 8, 4)},
		{"three-letters", []byte("AC#CA#AAC#C")},
		{"separator-only-letter", []byte("A#A#AA")},
		{"three-superblocks", storeText(700, 60, 140, 10)},
		{"sentinel-before-superblock-edge", steerSentinel(t, storeText(400, 60, 140, 11), superRows-prRowsPerBlock, superRows)},
		{"sentinel-after-superblock-edge", steerSentinel(t, storeText(400, 60, 140, 12), superRows, superRows+prRowsPerBlock)},
	}
	var sawEdge127, sawEdge128, sawBesideSentinel, sawConsecutive bool
	var sawSuperFirst, sawSuperLast, sawSentinelBefore, sawSentinelAfter bool
	for _, tc := range cases {
		def, ref := layoutsUnderTest(tc.text)
		if def.pk == nil || def.sepOff != 1 {
			t.Fatalf("%s: a DNA store text must be on the packed core with its separator off it (%v)", tc.name, def)
		}
		if !strings.Contains(def.String(), "rank=packed2") {
			t.Fatalf("%s: String() = %s", tc.name, def)
		}
		seps := separatorRows(ref)
		if len(seps) != len(def.pk.seps) {
			t.Fatalf("%s: %d separator rows listed, the BWT has %d", tc.name, len(def.pk.seps), len(seps))
		}
		for i, row := range seps {
			sawEdge127 = sawEdge127 || row == 127
			sawEdge128 = sawEdge128 || row == 128
			sawBesideSentinel = sawBesideSentinel || row == ref.sentinelRow-1 || row == ref.sentinelRow+1
			sawConsecutive = sawConsecutive || i > 0 && seps[i-1] == row-1
			sawSuperFirst = sawSuperFirst || row >= superRows && row%superRows < prRowsPerBlock
			sawSuperLast = sawSuperLast || row%superRows >= superRows-prRowsPerBlock
		}
		switch sent := ref.sentinelRow; {
		case sent < superRows && sent >= superRows-prRowsPerBlock:
			sawSentinelBefore = true
		case sent >= superRows && sent < superRows+prRowsPerBlock:
			sawSentinelAfter = true
		}
		back := roundTrip(t, def)
		var a, b bytes.Buffer
		def.WriteTo(&a)
		ref.WriteTo(&b)
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: byte-forced and default indexes write different payloads", tc.name)
		}
		for _, fm := range []*FMIndex{def, back} {
			compareLayouts(t, tc.name, fm, ref)
		}
	}
	if !sawEdge127 || !sawEdge128 || !sawBesideSentinel || !sawConsecutive {
		t.Fatalf("directed cases missing: row 127 %v, row 128 %v, beside the sentinel %v, consecutive %v",
			sawEdge127, sawEdge128, sawBesideSentinel, sawConsecutive)
	}
	if !sawSuperFirst || !sawSuperLast || !sawSentinelBefore || !sawSentinelAfter {
		t.Fatalf("superblock cases missing: separator in a superblock's first block %v, in its last %v, sentinel before an edge %v, after %v",
			sawSuperFirst, sawSuperLast, sawSentinelBefore, sawSentinelAfter)
	}
}

// roundTrip writes fm and reads it back.
func roundTrip(t *testing.T, fm *FMIndex) *FMIndex {
	t.Helper()
	var buf bytes.Buffer
	if _, err := fm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadFMIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// compareLayouts checks every rank and LF surface of fm against the
// byte-layout reference ref over the same text: exhaustively on small
// indexes, on random rows and row pairs on large ones.
func compareLayouts(t *testing.T, name string, fm, ref *FMIndex) {
	t.Helper()
	rows, sigma := ref.Rows(), ref.Sigma()
	if fm.Sigma() != sigma || fm.Rows() != rows || string(fm.Letters()) != string(ref.Letters()) {
		t.Fatalf("%s: dimensions diverge: %v vs %v", name, fm, ref)
	}
	got, want := make([]int32, 2*sigma), make([]int32, 2*sigma)
	fail := func(what string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", name, fmt.Sprintf(what, args...))
	}
	probeRow := func(row int) {
		for k := 0; k < sigma; k++ {
			if g, w := fm.Rank(k, row), ref.Rank(k, row); g != w {
				fail("Rank(%d, %d) = %d, byte layout says %d", k, row, g, w)
			}
		}
		fm.RanksAll(row, got[:sigma])
		ref.RanksAll(row, want[:sigma])
		if !slices.Equal(got[:sigma], want[:sigma]) {
			fail("RanksAll(%d) = %v, byte layout says %v", row, got[:sigma], want[:sigma])
		}
		if row < rows {
			gk, gn, gok := fm.LFStep(row)
			wk, wn, wok := ref.LFStep(row)
			if gk != wk || gn != wn || gok != wok {
				fail("LFStep(%d) = (%d, %d, %v), byte layout says (%d, %d, %v)", row, gk, gn, gok, wk, wn, wok)
			}
		}
	}
	probePair := func(lo, hi int) {
		for k := 0; k < sigma; k++ {
			gl, gh := fm.Rank2(k, lo, hi)
			wl, wh := ref.Rank2(k, lo, hi)
			if gl != wl || gh != wh {
				fail("Rank2(%d, %d, %d) = (%d, %d), byte layout says (%d, %d)", k, lo, hi, gl, gh, wl, wh)
			}
		}
		fm.RanksAll2(lo, hi, got[:sigma], got[sigma:])
		ref.RanksAll2(lo, hi, want[:sigma], want[sigma:])
		if !slices.Equal(got, want) {
			fail("RanksAll2(%d, %d) = %v, byte layout says %v", lo, hi, got, want)
		}
		fm.ExtendAll(lo, hi, got[:sigma], got[sigma:])
		ref.ExtendAll(lo, hi, want[:sigma], want[sigma:])
		if !slices.Equal(got, want) {
			fail("ExtendAll(%d, %d) = %v, byte layout says %v", lo, hi, got, want)
		}
		if hi-lo <= 64 {
			gp, wp := fm.Locate(lo, hi), ref.Locate(lo, hi)
			if !slices.Equal(gp, wp) {
				fail("Locate(%d, %d) = %v, byte layout says %v", lo, hi, gp, wp)
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(rows)))
	if rows <= 700 {
		for row := 0; row <= rows; row++ {
			probeRow(row)
			for hi := row; hi <= min(rows, row+140); hi++ {
				probePair(row, hi)
			}
		}
		return
	}
	for trial := 0; trial < 3000; trial++ {
		lo := rng.Intn(rows + 1)
		hi := min(rows, lo+rng.Intn(300))
		probeRow(lo)
		probePair(lo, hi)
	}
	probeRow(rows)
	sent := ref.sentinelRow
	for _, row := range append(superEdgeRows(rows), sent-1, sent, sent+1) {
		probeRow(row)
		probePair(max(0, row-1), min(rows, row+1))
		probePair(max(0, row-200), min(rows, row+200))
	}
	for _, row := range separatorRows(ref)[:min(2000, len(separatorRows(ref)))] {
		probeRow(row)
		probePair(row, min(rows, row+1))
		probePair(row-row%prRowsPerBlock, min(rows, row+1))
	}
}
