package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/align"
)

// The band row kernel's differential suite: advanceMergedBand (the
// driver) over bandRow (the kernel) against the preserved per-cell
// sweep of bandref_test.go, on the output row, the boundary/interior
// entry counts and the exact (row, j, score) emission sequence.

// kernelCase is one merged-band row advance: a parent row, the δ row
// of the edge letter, the FGOE seeds, and the search constants the
// sweep reads (query length, threshold, Theorem 2 row distance).
type kernelCase struct {
	name     string
	scheme   align.Scheme
	mq       int
	h        int
	rem      int  // lmax − i, the rows left under the length filter
	noFilter bool // Options.DisableScoreFilter: rowBound and colBound are negInf
	pJs      []int32
	pM       []int32
	pGa      []int32
	delta    []int32
	seeds    []seedCell
}

const kernelRow = 40 // the matrix row every case advances into

// emitted is one threshold-reaching cell as the sweep reported it.
type emitted struct{ row, j, score int32 }

// kernelCtx builds the search context a sweep reads: scheme, bounds,
// threshold, a collector and dominance table for flushes, fresh stats.
func kernelCtx(c *kernelCase) *searchCtx {
	e := New([]byte("ACGT"), Options{DisableScoreFilter: c.noFilter})
	ctx := &searchCtx{
		e: e, query: make([]byte, c.mq), s: c.scheme, h: c.h,
		c: align.NewCollector(), st: &Stats{},
		lmax:     kernelRow + c.rem,
		gOpen:    -(c.scheme.GapOpen + c.scheme.GapExtend),
		colBound: buildColBoundsInto(nil, c.mq, c.h, c.scheme, c.noFilter),
		barrier:  -1,
		ws:       &workspace{},
	}
	ctx.armDiag()
	return ctx
}

// kernelOutcome is everything the differential compares.
type kernelOutcome struct {
	js, m, ga          []int32
	boundary, interior int64
	emits              []emitted
}

func (o kernelOutcome) equal(p kernelOutcome) bool {
	return slices.Equal(o.js, p.js) && slices.Equal(o.m, p.m) && slices.Equal(o.ga, p.ga) &&
		o.boundary == p.boundary && o.interior == p.interior && slices.Equal(o.emits, p.emits)
}

func (o kernelOutcome) String() string {
	return fmt.Sprintf("js=%v\n m=%v\nga=%v\nboundary=%d interior=%d\nemits=%v", o.js, o.m, o.ga, o.boundary, o.interior, o.emits)
}

// runKernel advances the case with the production driver and kernel.
// The emission sequence is read back from the emit context's stage: a
// row of at most stageMaxCells (1024) columns cannot overflow it.
func runKernel(c *kernelCase) kernelOutcome {
	ctx := kernelCtx(c)
	em := &emitCtx{ctx: ctx, fixedT: 0}
	var out bandTriple
	// A stale prefix proves the driver appends after what is there.
	out.push(7, 7, 7)
	ctx.advanceMergedBand(c.pJs, c.pM, c.pGa, c.delta, kernelRow, c.seeds, em, &out)
	o := kernelOutcome{js: out.js[1:], m: out.m[1:], ga: out.ga[1:],
		boundary: ctx.st.EntriesBoundary, interior: ctx.st.EntriesInterior}
	cells := em.stage.Cells()
	for _, r := range em.stage.Runs() {
		for k := int32(0); k < r.N; k++ {
			o.emits = append(o.emits, emitted{r.Row, r.J0 + k, cells[r.Off+k]})
		}
	}
	return o
}

// runReference advances the case with the preserved per-cell sweep.
func runReference(c *kernelCase) kernelOutcome {
	ctx := kernelCtx(c)
	var out bandTriple
	var o kernelOutcome
	ctx.refMergedBand(c.pJs, c.pM, c.pGa, c.delta, kernelRow, c.seeds, func(i int, j, score int32) {
		o.emits = append(o.emits, emitted{int32(i), j, score})
	}, &out)
	o.js, o.m, o.ga = out.js, out.m, out.ga
	o.boundary, o.interior = ctx.st.EntriesBoundary, ctx.st.EntriesInterior
	return o
}

// Shape bits of genKernelCase's mode byte.
const (
	modeDense    = 1 << iota // contiguous parent row
	modeSeedless             // no FGOE seeds
	modeNoFilter             // Theorem 2 off
	modeProtein              // ⟨1,−3,−11,−1⟩ instead of ⟨1,−3,−5,−2⟩
	modeHighH                // threshold above every reachable score
	modeSparse               // wide gaps between parent cells
)

// genKernelCase draws a case from rng: mq columns, about np parent
// cells, threshold h, shaped by the mode bits. Parent cells are alive
// (m > 0) with ga either absent or at most m, as the sweep stores them;
// seeds are distinct ascending columns with positive values.
func genKernelCase(rng *rand.Rand, mode, mqB, npB, hB uint8) kernelCase {
	c := kernelCase{scheme: align.DefaultDNA, mq: 1 + int(mqB), h: 1 + int(hB)%64, rem: rng.Intn(96)}
	if mode&modeProtein != 0 {
		c.scheme = align.DefaultProtein
	}
	if mode&modeHighH != 0 {
		c.h = 1 << 20
	}
	c.noFilter = mode&modeNoFilter != 0
	top := 1 + rng.Intn(70) // score ceiling of this row
	c.delta = make([]int32, c.mq)
	for j := range c.delta {
		c.delta[j] = int32(c.scheme.Match)
		if rng.Intn(4) == 0 {
			c.delta[j] = int32(c.scheme.Mismatch)
		}
	}
	j := int32(1 + rng.Intn(c.mq))
	for k := 0; k < int(npB)%96 && int(j) <= c.mq; k++ {
		m := int32(1 + rng.Intn(top))
		ga := negInf
		if rng.Intn(3) > 0 {
			ga = m - int32(rng.Intn(16))
		}
		c.pJs, c.pM, c.pGa = append(c.pJs, j), append(c.pM, m), append(c.pGa, ga)
		switch {
		case mode&modeDense != 0:
			j++
		case mode&modeSparse != 0:
			j += int32(1 + rng.Intn(12))
		default:
			j++
			if rng.Intn(6) == 0 {
				j += int32(1 + rng.Intn(4))
			}
		}
	}
	if mode&modeSeedless == 0 {
		sj := int32(0)
		for k := rng.Intn(6); k > 0; k-- {
			sj += int32(1 + rng.Intn(1+c.mq/3))
			if int(sj) > c.mq {
				break
			}
			c.seeds = append(c.seeds, seedCell{j: sj, v: int32(1 + rng.Intn(top))})
		}
	}
	return c
}

// checkKernelCase compares kernel and reference on the case, then
// chains: the output row becomes the parent of the next advance, twice,
// so rows with the kernel's own ga values and dead-cell gaps are swept
// too.
func checkKernelCase(c kernelCase, rng *rand.Rand) error {
	for depth := 0; depth < 3; depth++ {
		got, want := runKernel(&c), runReference(&c)
		if !got.equal(want) {
			return fmt.Errorf("depth %d, case %+v:\nkernel\n%v\nreference\n%v", depth, c, got, want)
		}
		if len(want.js) == 0 {
			return nil
		}
		c.pJs, c.pM, c.pGa = want.js, want.m, want.ga
		for j := range c.delta {
			c.delta[j] = int32(c.scheme.Match)
			if rng.Intn(5) == 0 {
				c.delta[j] = int32(c.scheme.Mismatch)
			}
		}
		if c.rem > 0 {
			c.rem--
		}
		if rng.Intn(2) == 0 {
			c.seeds = nil
		}
	}
	return nil
}

// TestBandRowMatchesReference is the tier-1 differential: 2 000 random
// cases over every shape bit.
func TestBandRowMatchesReference(t *testing.T) {
	f := func(seed int64, mode, mqB, npB, hB uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		if err := checkKernelCase(genKernelCase(rng, mode, mqB, npB, hB), rng); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

// FuzzBandRow is the same differential under the native fuzzer; the
// seed corpus in testdata/fuzz/FuzzBandRow pins one input per shape.
func FuzzBandRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, mode, mqB, npB, hB uint8) {
		rng := rand.New(rand.NewSource(seed))
		if err := checkKernelCase(genKernelCase(rng, mode, mqB, npB, hB), rng); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBandRowFixedCases pins the kernel's edges by hand. Each case
// states what it must exercise and checks that it does, so a reference
// and a kernel that agree on an empty answer cannot pass it vacuously.
func TestBandRowFixedCases(t *testing.T) {
	dna, prot := align.DefaultDNA, align.DefaultProtein
	match := func(n int) []int32 { return slices.Repeat([]int32{1}, n) }
	span := func(lo, n int32) []int32 {
		js := make([]int32, n)
		for k := range js {
			js[k] = lo + int32(k)
		}
		return js
	}
	abs := func(n int) []int32 { return slices.Repeat([]int32{negInf}, n) }
	for _, tc := range []struct {
		c     kernelCase
		check func(o kernelOutcome) bool
		must  string
	}{
		{
			kernelCase{name: "np=1", scheme: dna, mq: 30, h: 12, rem: 50,
				pJs: []int32{5}, pM: []int32{20}, pGa: abs(1), delta: match(30)},
			func(o kernelOutcome) bool { return len(o.js) >= 2 && o.js[0] == 5 && o.js[1] == 6 && o.m[1] == 21 },
			"a vertical-only first cell and a diagonal-only last cell with nothing between",
		},
		{
			kernelCase{name: "truncated at mq", scheme: dna, mq: 12, h: 10, rem: 50,
				pJs: span(9, 4), pM: []int32{20, 21, 22, 23}, pGa: abs(4), delta: match(12)},
			func(o kernelOutcome) bool { return len(o.js) == 4 && o.js[3] == 12 },
			"a parent run ending at mq: no cell at hi+1, no tail",
		},
		{
			kernelCase{name: "dead interior cells", scheme: dna, mq: 40, h: 30, rem: 2,
				pJs: span(4, 9), pM: []int32{30, 31, 3, 2, 4, 33, 34, 2, 36}, pGa: abs(9), delta: match(40)},
			func(o kernelOutcome) bool {
				return len(o.js) > 2 && int(o.js[len(o.js)-1]-o.js[0]) > len(o.js)-1 && len(o.emits) > 0
			},
			"a contiguous parent whose output row has gaps, emitting in more than one run",
		},
		{
			kernelCase{name: "tail reaches mq", scheme: prot, mq: 24, h: 10, rem: 80,
				pJs: span(3, 3), pM: []int32{40, 41, 42}, pGa: abs(3), delta: match(24)},
			func(o kernelOutcome) bool {
				return len(o.js) > 0 && o.js[len(o.js)-1] == 24 && o.ga[len(o.ga)-1] == negInf
			},
			"a Gb tail alive up to the last query column",
		},
		{
			kernelCase{name: "score filter off", scheme: dna, mq: 30, h: 25, noFilter: true,
				pJs: span(6, 5), pM: []int32{3, 9, 2, 8, 1}, pGa: []int32{negInf, 4, negInf, 1, negInf}, delta: match(30)},
			func(o kernelOutcome) bool { return len(o.js) >= 5 && len(o.emits) == 0 },
			"low scores kept alive with rowBound = negInf",
		},
		{
			kernelCase{name: "H above every score", scheme: dna, mq: 30, h: 1000, noFilter: true,
				pJs: span(2, 12), pM: []int32{30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41}, pGa: abs(12), delta: match(30)},
			func(o kernelOutcome) bool { return len(o.js) > 12 && len(o.emits) == 0 },
			"a live row that emits nothing",
		},
		{
			kernelCase{name: "seeds in, between and past segments", scheme: dna, mq: 60, h: 14, rem: 70,
				pJs:   []int32{10, 11, 12, 13, 20, 21, 30},
				pM:    []int32{20, 22, 21, 25, 18, 19, 30},
				pGa:   []int32{negInf, 10, 12, negInf, 9, negInf, 20},
				delta: match(60),
				seeds: []seedCell{{3, 30}, {12, 40}, {14, 9}, {17, 15}, {20, 8}, {45, 20}}},
			func(o kernelOutcome) bool {
				// Seed 12 wins its cell (40 > 22+1) and must not be re-emitted;
				// seed 14 loses to the diagonal (25+1) and the cell must be.
				at := func(j int32) bool {
					return slices.ContainsFunc(o.emits, func(e emitted) bool { return e.j == j })
				}
				return !at(12) && at(14) && !at(3) && at(4)
			},
			"seeded cells: own-value seeds skipped, improved ones emitted, carries threaded across segments",
		},
	} {
		t.Run(tc.c.name, func(t *testing.T) {
			got, want := runKernel(&tc.c), runReference(&tc.c)
			if !got.equal(want) {
				t.Fatalf("kernel\n%v\nreference\n%v", got, want)
			}
			if !tc.check(want) {
				t.Fatalf("case does not exercise %s:\n%v", tc.must, want)
			}
		})
	}
}

// benchRow is a dense parent row of the given width. From width 16 up
// it sits eight columns short of the end of a protein query, scored so
// that every cell and the Gb tail stay alive and reach the threshold —
// the prot-emit shape. Below, it is the dna-reads shape: a few low
// cells in the middle of a 150-base read, a tail that dies of the gap
// penalty within a cell or two, nothing near the threshold.
func benchRow(width int) (c kernelCase) {
	rng := rand.New(rand.NewSource(int64(width)))
	lo, base, spread := 5, 60, 20
	if width >= 16 {
		c = kernelCase{scheme: align.DefaultProtein, mq: width + 12, h: 30, rem: 200}
	} else {
		c = kernelCase{scheme: align.DefaultDNA, mq: 150, h: 28, rem: 100}
		lo, base, spread = 70, 4, 8
	}
	c.delta = make([]int32, c.mq)
	for j := range c.delta {
		c.delta[j] = 1
		if rng.Intn(10) == 0 {
			c.delta[j] = -3
		}
	}
	for k := 0; k < width; k++ {
		m := int32(base + rng.Intn(spread))
		c.pJs, c.pM, c.pGa = append(c.pJs, int32(lo+k)), append(c.pM, m), append(c.pGa, m-int32(spread))
	}
	return c
}

// BenchmarkBandRow times one dense merged-band row — kernel, run scan
// and staging, the stage emptied by Reset with no collector behind it —
// at the widths of a DNA read band, a protein band and a whole protein
// query, and the preserved per-cell sweep on the same rows staging cell
// by cell as it used to. 0 allocs/op once the row is warm.
func BenchmarkBandRow(b *testing.B) {
	for _, width := range []int{4, 64, 300} {
		c := benchRow(width)
		ctx := kernelCtx(&c)
		em := &emitCtx{ctx: ctx, fixedT: 0}
		var out bandTriple
		for _, sweep := range []struct {
			name string
			row  func()
		}{
			{"kernel", func() { ctx.advanceMergedBand(c.pJs, c.pM, c.pGa, c.delta, kernelRow, nil, em, &out) }},
			{"reference", func() { ctx.refMergedBand(c.pJs, c.pM, c.pGa, c.delta, kernelRow, nil, em.emit, &out) }},
		} {
			b.Run(fmt.Sprintf("%s/width=%d", sweep.name, width), func(b *testing.B) {
				*ctx.st = Stats{}
				out.reset()
				em.stage.Reset()
				sweep.row()
				cells := ctx.st.EntriesBoundary + ctx.st.EntriesInterior
				if staged := len(em.stage.Cells()); out.len() < width || (staged < width) != (width < 16) {
					b.Fatalf("degenerate row: %d cells out, %d staged", out.len(), staged)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					out.reset()
					em.stage.Reset()
					sweep.row()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
			})
		}
	}
}
