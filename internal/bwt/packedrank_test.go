package bwt

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomText draws n bytes from letters.
func randomText(letters []byte, n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	text := make([]byte, n)
	for i := range text {
		text[i] = letters[rng.Intn(len(letters))]
	}
	return text
}

// superRows is the number of rows a rank-directory superblock covers.
const superRows = prRowsPerBlock << superShift

// superEdgeRows lists the rows of a core of rows rows that sit beside a
// superblock edge: the last and first rows of the blocks on either side
// of each edge, and the rows next to them.
func superEdgeRows(rows int) []int {
	var out []int
	for e := superRows; e <= rows; e += superRows {
		for _, r := range []int{
			e - prRowsPerBlock - 1, e - prRowsPerBlock, e - prRowsPerBlock + 1,
			e - 1, e, e + 1,
			e + prRowsPerBlock - 1, e + prRowsPerBlock, e + prRowsPerBlock + 1,
		} {
			if r <= rows {
				out = append(out, r)
			}
		}
	}
	return out
}

// TestPackedRankMatchesByteRank is the property test of the
// bit-parallel cores: on random texts over DNA-sized (2-bit packed
// layout), protein-sized and maximal 32-letter (bit-plane layout)
// alphabets, every rank answer of the default index equals the
// byte-scan layout's, for every code, at exhaustive rows on small
// texts and random rows on larger ones. The larger texts have 2¹⁵−1,
// 2¹⁵ and 2¹⁵+1 rows — one superblock of the rank directory, exactly
// filled, and one row into the next — and three superblocks, and are
// probed at every row beside a superblock edge.
func TestPackedRankMatchesByteRank(t *testing.T) {
	cases := []struct {
		name    string
		letters []byte
		sizes   []int
	}{
		{"dna", []byte("ACGT"), []int{0, 1, 2, 63, 64, 127, 128, 129, 1000, 20000, superRows - 2, superRows - 1, superRows, 3*superRows - 100}},
		{"binary", []byte("AB"), []int{5, 300}},
		{"protein", []byte("ACDEFGHIKLMNPQRSTVWY"), []int{1, 63, 64, 127, 128, 129, 500, 5000, superRows - 2, superRows - 1, superRows, 3*superRows - 100}},
		// One letter in most rows: its count passes 2¹⁵, which no
		// relative count may reach.
		{"dna-skewed", []byte("AAAAAAAACGT"), []int{3*superRows - 100}},
		{"protein-skewed", []byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAACDEFGHIKLMNPQRSTVWY"), []int{3*superRows - 100}},
		{"sigma5", []byte("ACGTN"), []int{400}},
		{"sigma32", []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZ012345"), []int{900}},
		{"sigma33-byte-fallback", []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456"), []int{900}},
	}
	for _, tc := range cases {
		for _, n := range tc.sizes {
			text := randomText(tc.letters, n, int64(n)+17)
			def := New(text)
			ref := NewWithOptions(text, Options{ForceByteRank: true})
			if def.Sigma() != ref.Sigma() || def.Rows() != ref.Rows() {
				t.Fatalf("%s/n=%d: dimensions diverge", tc.name, n)
			}
			rows := def.Rows()
			probe := func(row int) {
				for k := 0; k < def.Sigma(); k++ {
					if got, want := def.Rank(k, row), ref.Rank(k, row); got != want {
						t.Fatalf("%s/n=%d: Rank(%d, %d) = %d, byte layout says %d",
							tc.name, n, k, row, got, want)
					}
				}
				if s := def.Sigma(); s > 0 {
					got := make([]int32, s)
					want := make([]int32, s)
					def.RanksAll(row, got)
					ref.RanksAll(row, want)
					for k := range got {
						if got[k] != want[k] {
							t.Fatalf("%s/n=%d: RanksAll(%d)[%d] = %d, byte layout says %d",
								tc.name, n, row, k, got[k], want[k])
						}
					}
				}
			}
			if rows <= 512 {
				for row := 0; row <= rows-1; row++ {
					probe(row)
				}
				probe(rows - 1)
			} else {
				rng := rand.New(rand.NewSource(int64(n)))
				for trial := 0; trial < 2000; trial++ {
					probe(rng.Intn(rows))
				}
				probe(0)
				probe(rows - 1)
				for _, row := range superEdgeRows(rows) {
					probe(row)
				}
			}
		}
	}
}

// TestPackedRankSearchLocateAgree cross-checks the full query surface
// of the two layouts: Search ranges, Locate positions, and LF walks.
func TestPackedRankSearchLocateAgree(t *testing.T) {
	text := randomText([]byte("ACGT"), 8000, 99)
	def := New(text)
	ref := NewWithOptions(text, Options{ForceByteRank: true})
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 300; trial++ {
		l := 1 + rng.Intn(12)
		start := rng.Intn(len(text) - l)
		pat := text[start : start+l]
		lo1, hi1 := def.Search(pat)
		lo2, hi2 := ref.Search(pat)
		if lo1 != lo2 || hi1 != hi2 {
			t.Fatalf("Search(%q): packed [%d,%d) vs byte [%d,%d)", pat, lo1, hi1, lo2, hi2)
		}
		p1 := def.Locate(lo1, min(hi1, lo1+8))
		p2 := ref.Locate(lo2, min(hi2, lo2+8))
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("Locate(%q) diverges at %d: %d vs %d", pat, i, p1[i], p2[i])
			}
		}
	}
	for row := 0; row < def.Rows(); row += 37 {
		if def.Position(row) != ref.Position(row) {
			t.Fatalf("Position(%d): %d vs %d", row, def.Position(row), ref.Position(row))
		}
	}
}

// TestPackedRankSerializeRoundTrip checks that a packed index survives
// WriteTo/ReadFMIndex and comes back packed with identical behaviour.
func TestPackedRankSerializeRoundTrip(t *testing.T) {
	text := randomText([]byte("ACGT"), 4000, 7)
	fm := New(text)
	if fm.pk == nil {
		t.Fatal("DNA index should use the packed layout")
	}
	var buf bytes.Buffer
	if _, err := fm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFMIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.pk == nil {
		t.Error("loaded DNA index should use the packed layout")
	}
	for k := 0; k < fm.Sigma(); k++ {
		for row := 0; row <= fm.Rows(); row += 53 {
			if fm.Rank(k, row) != back.Rank(k, row) {
				t.Fatalf("Rank(%d, %d) changed across round trip", k, row)
			}
		}
	}
}

// TestPlaneRankSerializeRoundTrip checks that a bit-plane protein
// index survives WriteTo/ReadFMIndex at the current serialVersion and
// comes back on the plane layout with identical rank behaviour.
func TestPlaneRankSerializeRoundTrip(t *testing.T) {
	text := randomText([]byte("ACDEFGHIKLMNPQRSTVWY"), 3000, 9)
	fm := New(text)
	if fm.pl == nil {
		t.Fatal("protein index should use the plane layout")
	}
	var buf bytes.Buffer
	if _, err := fm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFMIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.pl == nil {
		t.Error("loaded protein index should use the plane layout")
	}
	for k := 0; k < fm.Sigma(); k++ {
		for row := 0; row <= fm.Rows(); row += 37 {
			if fm.Rank(k, row) != back.Rank(k, row) {
				t.Fatalf("Rank(%d, %d) changed across round trip", k, row)
			}
		}
	}
	// A byte-forced writer writes the core a load builds: the same
	// bytes as the default index, loading onto the plane layout.
	ref := NewWithOptions(text, Options{ForceByteRank: true})
	var def bytes.Buffer
	if _, err := fm.WriteTo(&def); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := ref.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), def.Bytes()) {
		t.Error("byte-forced and default indexes write different payloads")
	}
	back2, err := ReadFMIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back2.pl == nil {
		t.Error("byte-written protein index should load onto the plane layout")
	}
	if back2.Count(text[100:107]) != fm.Count(text[100:107]) {
		t.Error("counts differ across byte-written round trip")
	}
}
