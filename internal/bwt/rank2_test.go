package bwt

import (
	"math/rand"
	"testing"
)

// layoutsUnderTest builds the default index (packed for σ ≤ 4, plane
// for σ ≤ 32) and the byte-scan reference over the same text.
func layoutsUnderTest(text []byte) (def, ref *FMIndex) {
	return New(text), NewWithOptions(text, Options{ForceByteRank: true})
}

// TestRanksAll2MatchesTwoCalls is the property test of the fused
// two-row rank: for every layout (packed DNA, bit-plane protein, and
// the byte reference itself), ranksAll2(lo, hi) must equal the pair
// ranksAll(lo), ranksAll(hi), and rank2 likewise — across random
// (lo, hi) pairs plus directed rows straddling the sentinel and every
// kind of checkpoint-block boundary, superblock edges included on texts
// of 2¹⁵−1, 2¹⁵ and 2¹⁵+1 rows and of three superblocks.
func TestRanksAll2MatchesTwoCalls(t *testing.T) {
	cases := []struct {
		name    string
		letters []byte
		sizes   []int
	}{
		{"dna", []byte("ACGT"), []int{0, 1, 2, 63, 64, 127, 128, 129, 255, 1000, 20000, superRows - 2, superRows - 1, superRows, 3*superRows - 100}},
		{"binary", []byte("AB"), []int{5, 300}},
		{"protein", []byte("ACDEFGHIKLMNPQRSTVWY"), []int{1, 127, 128, 500, 5000, superRows - 2, superRows - 1, superRows, 3*superRows - 100}},
		{"sigma32", []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZ012345"), []int{700}},
		{"sigma33-byte", []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456"), []int{700}},
	}
	for _, tc := range cases {
		for _, n := range tc.sizes {
			text := randomText(tc.letters, n, int64(n)+23)
			def, ref := layoutsUnderTest(text)
			rows := def.Rows()
			sigma := def.Sigma()
			if sigma == 0 {
				continue
			}
			los := make([]int32, sigma)
			his := make([]int32, sigma)
			wantLo := make([]int32, sigma)
			wantHi := make([]int32, sigma)
			probe := func(fm *FMIndex, layout string, lo, hi int) {
				t.Helper()
				fm.RanksAll2(lo, hi, los, his)
				fm.RanksAll(lo, wantLo)
				fm.RanksAll(hi, wantHi)
				for k := 0; k < sigma; k++ {
					if los[k] != wantLo[k] || his[k] != wantHi[k] {
						t.Fatalf("%s/%s/n=%d: RanksAll2(%d, %d)[%d] = (%d, %d), two RanksAll say (%d, %d)",
							tc.name, layout, n, lo, hi, k, los[k], his[k], wantLo[k], wantHi[k])
					}
					gotLo, gotHi := fm.Rank2(k, lo, hi)
					if gotLo != wantLo[k] || gotHi != wantHi[k] {
						t.Fatalf("%s/%s/n=%d: Rank2(%d, %d, %d) = (%d, %d), two Ranks say (%d, %d)",
							tc.name, layout, n, k, lo, hi, gotLo, gotHi, wantLo[k], wantHi[k])
					}
				}
			}
			probeBoth := func(lo, hi int) {
				probe(def, "default", lo, hi)
				probe(ref, "byte", lo, hi)
				// The fused LF step (code + rank in one visit) must
				// agree across layouts at both rows.
				for _, row := range []int{lo, hi} {
					if row >= rows {
						continue
					}
					c1, n1, ok1 := def.LFStep(row)
					c2, n2, ok2 := ref.LFStep(row)
					if c1 != c2 || n1 != n2 || ok1 != ok2 {
						t.Fatalf("%s/n=%d: LFStep(%d) = (%d, %d, %v) default vs (%d, %d, %v) byte",
							tc.name, n, row, c1, n1, ok1, c2, n2, ok2)
					}
				}
			}
			// Directed pairs: block/checkpoint boundaries (64, 127, 128,
			// 129), the sentinel row straddled and touched, equal rows,
			// and the full range.
			sent := def.sentinelRow
			directed := [][2]int{
				{0, 0}, {0, rows}, {rows, rows},
				{sent, sent}, {max(0, sent-1), min(rows, sent+1)},
				{sent, min(rows, sent+1)}, {max(0, sent-1), sent},
			}
			edges := append([]int{63, 64, 65, 127, 128, 129, 191, 192}, superEdgeRows(rows)...)
			for _, b := range edges {
				if b <= rows {
					directed = append(directed, [2]int{b, b}, [2]int{max(0, b-1), b}, [2]int{b, min(rows, b+1)})
					if b+40 <= rows {
						directed = append(directed, [2]int{b - 30, b + 40}) // straddles the boundary
					}
					if b+200 <= rows && b >= 200 {
						directed = append(directed, [2]int{b - 200, b + 200}) // spans a block each side
					}
				}
			}
			for _, d := range directed {
				if d[0] <= d[1] && d[1] <= rows {
					probeBoth(d[0], d[1])
				}
			}
			rng := rand.New(rand.NewSource(int64(n) + 31))
			trials := 300
			if rows <= 256 {
				trials = 80
			}
			for trial := 0; trial < trials; trial++ {
				lo := rng.Intn(rows + 1)
				hi := lo
				switch trial % 3 {
				case 0: // near pair, usually same block
					hi = min(rows, lo+rng.Intn(48))
				case 1: // anywhere
					hi = lo + rng.Intn(rows+1-lo)
				}
				probeBoth(lo, hi)
			}
		}
	}
}
