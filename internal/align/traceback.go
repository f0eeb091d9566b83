package align

import (
	"fmt"
	"strings"
)

// Op is one alignment operation in a traceback.
type Op byte

const (
	OpMatch    Op = 'M' // identical characters
	OpMismatch Op = 'X' // substitution
	OpDelete   Op = 'D' // text character aligned to a gap
	OpInsert   Op = 'I' // query character aligned to a gap
)

// Alignment is a fully resolved local alignment with its operation
// sequence. Start/End positions are 0-based inclusive.
type Alignment struct {
	TStart, TEnd int
	QStart, QEnd int
	Score        int
	Ops          []Op
}

// Traceback reconstructs the best local alignment that ends at the
// given hit. It recomputes the DP over a window ending at the hit,
// growing the window until the alignment's start fits, so memory stays
// proportional to the alignment's own footprint rather than n·m: one
// direction byte per window cell, plus two rows of scores.
//
// The window stops growing once it covers every alignment the hit's
// score allows: with a = QEnd+1 query characters at most, a local
// alignment of score S spans at most a + (Match·a − S)/|GapExtend| text
// characters, since each text character beyond the query's costs at
// least one gap extension. A hit that no alignment of its score ends at
// therefore fails after O(m²) cells, not O(n·m).
func Traceback(text, query []byte, s Scheme, hit Hit) (Alignment, error) {
	if hit.TEnd < 0 || hit.TEnd >= len(text) || hit.QEnd < 0 || hit.QEnd >= len(query) {
		return Alignment{}, fmt.Errorf("align: hit end (%d,%d) out of range", hit.TEnd, hit.QEnd)
	}
	maxSpan := len(text) + len(query)
	if s.GapExtend < 0 {
		// One more than the longest span, so that an alignment reaching
		// the window's edge is known to be clipped; none when a matches
		// fall short of the score.
		a := hit.QEnd + 1
		maxSpan = 0
		if slack := s.Match*a - hit.Score; slack >= 0 {
			maxSpan = a + slack/-s.GapExtend + 1
		}
	}
	for window := 256; maxSpan > 0; window *= 4 {
		w := min(window, maxSpan)
		a, best, ok := tracebackWindow(text, query, s, hit, w)
		if ok {
			return a, nil
		}
		// A wider window only adds start cells, so once the best score
		// ending at the hit passes its score it never comes back to it.
		if best > hit.Score || w == maxSpan {
			break
		}
	}
	return Alignment{}, fmt.Errorf("align: no alignment of score %d ends at (%d,%d)",
		hit.Score, hit.TEnd, hit.QEnd)
}

// direction codes packed per cell and per matrix.
const (
	fromZero = iota
	fromDiag
	fromGa // vertical gap (consumes text)
	fromGb // horizontal gap (consumes query)
)

// tracebackWindow aligns the window of the given size ending at the
// hit. It returns the best score ending at the hit within the window,
// and the alignment when that score is the hit's and its start lies
// inside the window.
func tracebackWindow(text, query []byte, s Scheme, hit Hit, window int) (Alignment, int, bool) {
	ti0 := max(0, hit.TEnd+1-window)
	qj0 := max(0, hit.QEnd+1-window)
	sub := text[ti0 : hit.TEnd+1]
	qub := query[qj0 : hit.QEnd+1]
	n, m := len(sub), len(qub)
	const negInf = -1 << 24

	// dir[i*(m+1)+j]: two bits H-source, one bit Ga-extends, one bit
	// Gb-extends. A cell whose H is 0 has source fromZero, so the walk
	// needs no score matrix: the scores live in two rolling rows.
	dir := make([]uint8, (n+1)*(m+1))
	rows := make([]int32, 6*(m+1))
	hPrev, hCur := rows[0:m+1], rows[m+1:2*(m+1)]
	gaPrev, gaCur := rows[2*(m+1):3*(m+1)], rows[3*(m+1):4*(m+1)]
	gbCur := rows[4*(m+1) : 5*(m+1)]
	for j := range gaPrev {
		gaPrev[j] = negInf
	}
	gbCur[0] = negInf
	open := int32(s.GapOpen + s.GapExtend)
	ext := int32(s.GapExtend)
	for i := 1; i <= n; i++ {
		hCur[0], gaCur[0] = 0, negInf
		d := dir[i*(m+1) : (i+1)*(m+1)]
		for j := 1; j <= m; j++ {
			var gaFlag, gbFlag uint8
			ga := hPrev[j] + open
			if e := gaPrev[j] + ext; e > ga {
				ga, gaFlag = e, 1<<2
			}
			gb := hCur[j-1] + open
			if e := gbCur[j-1] + ext; e > gb {
				gb, gbFlag = e, 1<<4
			}
			diag := hPrev[j-1] + int32(s.Delta(sub[i-1], qub[j-1]))
			best, src := int32(0), uint8(fromZero)
			if diag > best {
				best, src = diag, fromDiag
			}
			if ga > best {
				best, src = ga, fromGa
			}
			if gb > best {
				best, src = gb, fromGb
			}
			hCur[j], gaCur[j], gbCur[j] = best, ga, gb
			d[j] = src | gaFlag | gbFlag
		}
		hPrev, hCur = hCur, hPrev
		gaPrev, gaCur = gaCur, gaPrev
	}
	score := int(hPrev[m])
	if score != hit.Score {
		// The window clipped the alignment (the caller grows it), or no
		// alignment of the hit's score ends there.
		return Alignment{}, score, false
	}

	var ops []Op
	i, j := n, m
	at := func(i, j int) uint8 { return dir[i*(m+1)+j] }
	state := at(i, j) & 3
	for state != fromZero {
		switch state {
		case fromDiag:
			if sub[i-1] == qub[j-1] {
				ops = append(ops, OpMatch)
			} else {
				ops = append(ops, OpMismatch)
			}
			i, j = i-1, j-1
			state = at(i, j) & 3
		case fromGa:
			ext := at(i, j)&(1<<2) != 0
			ops = append(ops, OpDelete)
			i--
			if !ext {
				state = at(i, j) & 3
			}
		case fromGb:
			ext := at(i, j)&(1<<4) != 0
			ops = append(ops, OpInsert)
			j--
			if !ext {
				state = at(i, j) & 3
			}
		}
		if i == 0 || j == 0 {
			break
		}
	}
	if i == 0 && ti0 > 0 || j == 0 && qj0 > 0 {
		// Ran into the window edge: alignment extends further left.
		return Alignment{}, score, false
	}
	// Reverse ops.
	for a, b := 0, len(ops)-1; a < b; a, b = a+1, b-1 {
		ops[a], ops[b] = ops[b], ops[a]
	}
	return Alignment{
		TStart: ti0 + i, TEnd: hit.TEnd,
		QStart: qj0 + j, QEnd: hit.QEnd,
		Score: hit.Score, Ops: ops,
	}, score, true
}

// CIGAR renders the operations in a compact run-length form, with 'M'
// covering both matches and mismatches as in SAM.
func (a Alignment) CIGAR() string {
	var b strings.Builder
	i := 0
	for i < len(a.Ops) {
		op := a.Ops[i]
		j := i
		for j < len(a.Ops) && sameCigarClass(a.Ops[j], op) {
			j++
		}
		cls := byte(op)
		if op == OpMatch || op == OpMismatch {
			cls = 'M'
		}
		fmt.Fprintf(&b, "%d%c", j-i, cls)
		i = j
	}
	return b.String()
}

func sameCigarClass(a, b Op) bool {
	isM := func(o Op) bool { return o == OpMatch || o == OpMismatch }
	if isM(a) && isM(b) {
		return true
	}
	return a == b
}

// Format renders a three-line human-readable alignment (text row,
// match row, query row), wrapped at width columns.
func (a Alignment) Format(text, query []byte, width int) string {
	if width <= 0 {
		width = 60
	}
	var tRow, mRow, qRow []byte
	ti, qi := a.TStart, a.QStart
	for _, op := range a.Ops {
		switch op {
		case OpMatch:
			tRow = append(tRow, text[ti])
			mRow = append(mRow, '|')
			qRow = append(qRow, query[qi])
			ti, qi = ti+1, qi+1
		case OpMismatch:
			tRow = append(tRow, text[ti])
			mRow = append(mRow, ' ')
			qRow = append(qRow, query[qi])
			ti, qi = ti+1, qi+1
		case OpDelete:
			tRow = append(tRow, text[ti])
			mRow = append(mRow, ' ')
			qRow = append(qRow, '-')
			ti++
		case OpInsert:
			tRow = append(tRow, '-')
			mRow = append(mRow, ' ')
			qRow = append(qRow, query[qi])
			qi++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "score=%d text[%d..%d] query[%d..%d] cigar=%s\n",
		a.Score, a.TStart, a.TEnd, a.QStart, a.QEnd, a.CIGAR())
	for off := 0; off < len(tRow); off += width {
		end := min(off+width, len(tRow))
		fmt.Fprintf(&b, "T %s\n  %s\nQ %s\n", tRow[off:end], mRow[off:end], qRow[off:end])
	}
	return b.String()
}

// Identity returns the fraction of alignment columns that are exact
// matches.
func (a Alignment) Identity() float64 {
	if len(a.Ops) == 0 {
		return 0
	}
	matches := 0
	for _, op := range a.Ops {
		if op == OpMatch {
			matches++
		}
	}
	return float64(matches) / float64(len(a.Ops))
}
