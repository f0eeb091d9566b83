package bwt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Index serialization: a versioned little-endian binary format so an
// index built once can be saved and reloaded instead of rebuilt — the
// first step toward the external-memory deployment the paper lists as
// future work ("exploit algorithms using external memory"). The
// payload holds the rank core's data words — the 2-bit symbols or the
// bit planes — exactly as they sit in memory, so a load reads them
// back instead of rebuilding the core, and validates them instead of
// trusting them: it fails cleanly on truncated or corrupted input. The
// core written is the one a build picks for the alphabet (even from a
// ForceByteRank index), so a file's bytes depend only on the index's
// content.
//
// Layout after the header (magic, version, rank-layout tag, n, σ,
// sentinel row, byte-layout checkpoint interval, sample rate):
// the letters; the separator rows the packed core lists (a count and
// int32 rows, none on the other layouts); the core (a count and that
// many uint64 data words, block by block — packed or planes — or n+1
// code bytes for the byte layout); the position samples (their bit
// width, a count and that many uint64 words, as packed in memory); the
// sample bitmap's words. Everything a file could hold inconsistently
// with these is derived on load instead: the rank directory (both
// levels, in the pass that checks the data words), the C array, the
// byte layout's checkpoints and the sample bitmap's superblocks.

const (
	serialMagic = 0x414c4145 // "ALAE"
	// serialVersion 5 persists the rank core's data words only, with
	// the packed core's separator rows, and the position samples
	// bit-packed; the load rebuilds the two-level rank directory.
	// Version 4 also held each block's absolute occurrence checkpoints,
	// version 3 the samples as int32s, version 2 BWT code bytes plus
	// occurrence checkpoints, and version 1 predated the rank-layout
	// tag; all are rejected: rebuild the index.
	serialVersion = 5
)

// maxSerialRows bounds a loaded index's rows: counts are int32.
const maxSerialRows = 1<<31 - 1

// WriteTo serialises the index. It implements io.WriterTo. The rank
// core's data words are written block by block from memory, its
// directory left out; a ForceByteRank index writes the core a load of
// it builds.
func (fm *FMIndex) WriteTo(w io.Writer) (int64, error) {
	pk, pl, codes := fm.pk, fm.pl, fm.bwt
	if codes != nil {
		if pk, pl, _ = fm.buildCore(codes); pk != nil || pl != nil {
			codes = nil
		}
	}
	var seps []int32
	var blocks []uint64
	var stride, dirWords int
	switch {
	case pk != nil:
		seps, blocks, stride, dirWords = pk.seps, pk.blocks, prStride, prDirWords
	case pl != nil:
		blocks, stride, dirWords = pl.blocks, pl.stride, pl.dirWords
	}
	layout, _ := coreLayout(fm.letters)
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	putLE(bw, serialMagic, serialVersion, layout)
	putLE(bw, uint64(fm.n))
	putLE(bw, uint32(fm.sigma), uint32(fm.sentinelRow), uint32(fm.ckptEvery), uint32(fm.sampleRate))
	putLE(bw, uint32(len(fm.letters)))
	bw.Write(fm.letters)
	putLE(bw, uint64(len(seps)))
	putLE(bw, seps...)
	if codes != nil {
		putLE(bw, uint64(len(codes)))
		bw.Write(codes)
	} else {
		putLE(bw, uint64(len(blocks)/stride*(stride-dirWords)))
		putData(bw, blocks, stride, dirWords)
	}
	putLE(bw, uint32(fm.sampleBits))
	putLE(bw, uint64(len(fm.samples)))
	putLE(bw, fm.samples...)
	putLE(bw, uint64(len(fm.sampleMark.words)))
	putLE(bw, fm.sampleMark.words...)
	err := bw.Flush() // a bufio.Writer keeps its first error
	return cw.n, err
}

// putLE appends vs little-endian to w's buffer, in chunks that fit it,
// so that no slice is ever copied whole.
func putLE[T int32 | uint32 | uint64](w *bufio.Writer, vs ...T) {
	var zero T
	size := binary.Size(zero)
	for len(vs) > 0 {
		b := w.AvailableBuffer()
		if cap(b) < size {
			if w.Flush() != nil {
				return
			}
			continue
		}
		k := min(len(vs), cap(b)/size)
		b, _ = binary.Append(b, binary.LittleEndian, vs[:k])
		w.Write(b)
		vs = vs[k:]
	}
}

// putData appends each block's data words little-endian to w's buffer,
// leaving out its first dirWords words (the directory).
func putData(w *bufio.Writer, blocks []uint64, stride, dirWords int) {
	size := 8 * (stride - dirWords)
	for base := 0; base < len(blocks); base += stride {
		b := w.AvailableBuffer()
		if cap(b) < size {
			if w.Flush() != nil {
				return
			}
			b = w.AvailableBuffer()
		}
		for _, v := range blocks[base+dirWords : base+stride] {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		w.Write(b)
	}
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// ReadFMIndex deserialises an index written by WriteTo.
func ReadFMIndex(r io.Reader) (*FMIndex, error) {
	br := bufio.NewReader(r)
	read := func(vs ...any) error {
		for _, v := range vs {
			if err := binary.Read(br, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	var magic, version uint32
	if err := read(&magic, &version); err != nil {
		return nil, fmt.Errorf("bwt: reading index header: %w", err)
	}
	if magic != serialMagic {
		return nil, fmt.Errorf("bwt: bad magic %#x; not an ALAE index", magic)
	}
	if version != serialVersion {
		return nil, fmt.Errorf("bwt: unsupported index version %d (want %d); rebuild the index", version, serialVersion)
	}
	fm := &FMIndex{}
	var layout uint32
	var n uint64
	var sigma, sentinelRow, ckptEvery, sampleRate uint32
	if err := read(&layout, &n, &sigma, &sentinelRow, &ckptEvery, &sampleRate); err != nil {
		return nil, fmt.Errorf("bwt: reading index dimensions: %w", err)
	}
	if layout > layoutPlane {
		return nil, fmt.Errorf("bwt: unknown rank-layout tag %d", layout)
	}
	if n >= maxSerialRows || sigma > 256 || ckptEvery == 0 || sampleRate == 0 {
		return nil, fmt.Errorf("bwt: implausible index dimensions (n=%d, σ=%d)", n, sigma)
	}
	fm.n = int(n)
	fm.sigma = int(sigma)
	fm.sentinelRow = int(sentinelRow)
	fm.ckptEvery = int(ckptEvery)
	fm.sampleRate = int(sampleRate)
	rows := fm.n + 1
	if fm.sentinelRow > fm.n {
		return nil, fmt.Errorf("bwt: sentinel row %d out of range", fm.sentinelRow)
	}

	var nLetters uint32
	if err := read(&nLetters); err != nil {
		return nil, err
	}
	if int(nLetters) != fm.sigma {
		return nil, fmt.Errorf("bwt: letters length %d != σ %d", nLetters, fm.sigma)
	}
	fm.letters = make([]byte, nLetters)
	if err := read(fm.letters); err != nil {
		return nil, err
	}
	for i := range fm.code {
		fm.code[i] = -1
	}
	for i, b := range fm.letters {
		if i > 0 && b <= fm.letters[i-1] {
			return nil, fmt.Errorf("bwt: letters not strictly increasing")
		}
		fm.code[b] = int16(i)
	}
	want, sepOff := coreLayout(fm.letters)
	if layout != want {
		return nil, fmt.Errorf("bwt: rank-layout tag %d inconsistent with the alphabet (want %d)", layout, want)
	}

	var nSeps uint64
	if err := read(&nSeps); err != nil {
		return nil, err
	}
	if nSeps > 0 && sepOff == 0 || nSeps > uint64(rows) {
		return nil, fmt.Errorf("bwt: %d separator rows implausible for this core", nSeps)
	}
	seps, err := readSlice[int32](br, nSeps)
	if err != nil {
		return nil, fmt.Errorf("bwt: reading separator rows: %w", err)
	}
	for i, s := range seps {
		if s < 0 || int(s) >= rows || int(s) == fm.sentinelRow || i > 0 && s <= seps[i-1] {
			return nil, fmt.Errorf("bwt: separator row %d out of order or out of range", s)
		}
	}
	if len(seps) == 0 {
		seps = nil
	}

	var nCore uint64
	if err := read(&nCore); err != nil {
		return nil, err
	}
	var totals []int32 // per dense code, $ and separators excluded
	switch layout {
	case layoutPacked2:
		if want := uint64(coreBlocks(rows) * prDataWords); nCore != want {
			return nil, fmt.Errorf("bwt: packed core of %d words, want %d", nCore, want)
		}
		fm.pk = &packedRank{rows: rows, seps: seps}
		if fm.pk.blocks, err = readBlocks(br, coreBlocks(rows), prStride, prDirWords); err != nil {
			return nil, fmt.Errorf("bwt: reading rank core: %w", err)
		}
		fm.sepOff = sepOff
		totals, err = fm.pk.verify(fm.sentinelRow, fm.sigma-sepOff)
		if sepOff != 0 {
			totals = append([]int32{int32(len(seps))}, totals...)
		}
	case layoutPlane:
		pl := newPlaneRank(rows, fm.sigma)
		if want := uint64(coreBlocks(rows) * (pl.stride - pl.dirWords)); nCore != want {
			return nil, fmt.Errorf("bwt: plane core of %d words, want %d", nCore, want)
		}
		if pl.blocks, err = readBlocks(br, coreBlocks(rows), pl.stride, pl.dirWords); err != nil {
			return nil, fmt.Errorf("bwt: reading rank core: %w", err)
		}
		fm.pl = pl
		totals, err = pl.verify(fm.sentinelRow)
	default:
		if nCore != uint64(rows) {
			return nil, fmt.Errorf("bwt: BWT length %d != n+1 = %d", nCore, rows)
		}
		if fm.bwt, err = readExact(br, nCore); err != nil {
			return nil, fmt.Errorf("bwt: reading BWT: %w", err)
		}
		totals, err = fm.verifyBytes()
	}
	if err != nil {
		return nil, err
	}
	// The C array, derived from the core: every LF step and rank lands
	// inside [0, rows] because it is built from the very counts the
	// core answers with.
	fm.c = make([]int32, fm.sigma+1)
	sum := int32(1) // the $ row precedes everything
	for k, t := range totals {
		if t == 0 {
			return nil, fmt.Errorf("bwt: letter %q never occurs in the BWT", fm.letters[k])
		}
		fm.c[k] = sum
		sum += t
	}
	fm.c[fm.sigma] = sum

	if err := fm.readSamples(br); err != nil {
		return nil, err
	}
	var nWords uint64
	if err := read(&nWords); err != nil {
		return nil, err
	}
	if want := uint64((rows + 63) / 64); nWords != want {
		return nil, fmt.Errorf("bwt: sample bitmap words %d != expected %d", nWords, want)
	}
	words, err := readSlice[uint64](br, nWords)
	if err != nil {
		return nil, err
	}
	if tail := rows % 64; tail != 0 && words[len(words)-1]>>tail != 0 {
		return nil, fmt.Errorf("bwt: sample bitmap marks rows past the last")
	}
	mark := rankBitVectorOver(words, rows)
	mark.Finish()
	if got, want := mark.Rank(rows), fm.n/fm.sampleRate+1; got != want {
		return nil, fmt.Errorf("bwt: sample bitmap popcount %d != sample count %d", got, want)
	}
	fm.sampleMark = mark
	return fm, nil
}

// readSamples reads the bit-packed position samples and checks them
// against n and the sample rate: the width, the word count, zero
// padding past the last sample, and every value at most n/sampleRate.
func (fm *FMIndex) readSamples(br *bufio.Reader) error {
	var width uint32
	var nWords uint64
	if err := binary.Read(br, binary.LittleEndian, &width); err != nil {
		return err
	}
	wantWidth, wantWords := sampleLayout(fm.n, fm.sampleRate)
	if uint(width) != wantWidth {
		return fmt.Errorf("bwt: sample width %d bits, want %d", width, wantWidth)
	}
	if err := binary.Read(br, binary.LittleEndian, &nWords); err != nil {
		return err
	}
	if nWords != uint64(wantWords) {
		return fmt.Errorf("bwt: %d sample words, want %d", nWords, wantWords)
	}
	words, err := readSlice[uint64](br, nWords)
	if err != nil {
		return fmt.Errorf("bwt: reading samples: %w", err)
	}
	fm.sampleBits, fm.samples = wantWidth, words
	count := fm.n/fm.sampleRate + 1
	if used := uint(count) * wantWidth % 64; used != 0 && words[len(words)-1]>>used != 0 {
		return fmt.Errorf("bwt: sample words hold bits past the last sample")
	}
	for i := range count {
		if p := fm.sample(i); p > fm.n {
			return fmt.Errorf("bwt: sample position %d out of range", p)
		}
	}
	return nil
}

// verify indexes a loaded packed core — a pass that rejects data past
// the last row and a separator row holding a letter — and returns its
// per-code totals over physical codes 0..sigma-1, $ and separators
// excluded: the sentinel row must hold the placeholder code 0, and no
// row a code ≥ sigma.
func (p *packedRank) verify(sentinelRow, sigma int) ([]int32, error) {
	running, err := p.index()
	if err != nil {
		return nil, err
	}
	if p.at(sentinelRow) != 0 {
		return nil, fmt.Errorf("bwt: sentinel row %d holds a letter", sentinelRow)
	}
	running[0]-- // the sentinel's placeholder
	for k := sigma; k < 4; k++ {
		if running[k] != 0 {
			return nil, fmt.Errorf("bwt: rank core holds code %d outside the alphabet", k)
		}
	}
	return running[:sigma:sigma], nil
}

// verify indexes a loaded plane core — a pass that rejects data past
// the last row and codes outside the alphabet — and returns its
// per-code totals, $ excluded: the sentinel row must hold the
// placeholder code 0.
func (p *planeRank) verify(sentinelRow int) ([]int32, error) {
	running, err := p.index()
	if err != nil {
		return nil, err
	}
	if p.at(sentinelRow) != 0 {
		return nil, fmt.Errorf("bwt: sentinel row %d holds a letter", sentinelRow)
	}
	running[0]-- // the sentinel's placeholder
	return running, nil
}

// verifyBytes checks a loaded byte-layout BWT — every code below σ,
// the sentinel row holding the placeholder code 0 — builds its
// checkpoints and returns its per-code totals, $ excluded.
func (fm *FMIndex) verifyBytes() ([]int32, error) {
	for _, b := range fm.bwt {
		if int(b) >= fm.sigma && fm.sigma > 0 {
			return nil, fmt.Errorf("bwt: BWT code %d out of alphabet", b)
		}
	}
	if fm.bwt[fm.sentinelRow] != 0 {
		return nil, fmt.Errorf("bwt: sentinel row %d holds a letter", fm.sentinelRow)
	}
	fm.occ = buildOcc(fm.bwt, fm.sentinelRow, fm.ckptEvery, fm.sigma)
	totals := make([]int32, fm.sigma)
	for k := range totals {
		totals[k] = fm.rank(k, fm.Rows())
	}
	return totals, nil
}

// readSlice reads count little-endian values, growing the result as
// the bytes arrive — so that a lying count in a corrupted payload fails
// at the end of the input instead of committing memory up front — to
// exactly count values.
func readSlice[T int32 | uint64](br *bufio.Reader, count uint64) ([]T, error) {
	const chunk = 1 << 16 // values committed before their bytes arrive
	var zero T
	size := binary.Size(zero)
	out := make([]T, 0, min(count, chunk))
	for uint64(len(out)) < count {
		if len(out) == cap(out) {
			grown := make([]T, len(out), min(count, 2*uint64(cap(out))))
			copy(grown, out)
			out = grown
		}
		k := min(cap(out)-len(out), br.Size()/size)
		p, err := br.Peek(k * size)
		if len(p) < size {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		k = len(p) / size
		if _, err := binary.Decode(p[:k*size], binary.LittleEndian, out[len(out):len(out)+k]); err != nil {
			return nil, err
		}
		out = out[:len(out)+k]
		br.Discard(k * size)
	}
	return out, nil
}

// readBlocks reads nBlocks blocks' data words into a core of stride
// words per block, leaving each block's first dirWords words — its
// directory — zero. Like readSlice, it grows the core as the bytes
// arrive, to exactly nBlocks blocks.
func readBlocks(br *bufio.Reader, nBlocks, stride, dirWords int) ([]uint64, error) {
	const chunk = 1 << 13 // blocks committed before their bytes arrive
	size := 8 * (stride - dirWords)
	out := make([]uint64, 0, min(nBlocks, chunk)*stride)
	for len(out) < nBlocks*stride {
		if len(out) == cap(out) {
			grown := make([]uint64, len(out), min(nBlocks*stride, 2*cap(out)))
			copy(grown, out)
			out = grown
		}
		p, err := br.Peek(size)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		out = out[:len(out)+stride]
		data := out[len(out)-stride+dirWords:]
		for i := range data {
			data[i] = binary.LittleEndian.Uint64(p[8*i:])
		}
		br.Discard(size)
	}
	return out, nil
}

// readExact reads exactly n bytes, growing the buffer in bounded
// chunks so that a lying length field in a corrupted index fails with
// an I/O error instead of exhausting memory on one giant allocation.
func readExact(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 22
	out := make([]byte, 0, min(n, chunk))
	remaining := n
	for remaining > 0 {
		step := min(remaining, uint64(chunk))
		start := len(out)
		out = append(out, make([]byte, step)...)
		if _, err := io.ReadFull(r, out[start:]); err != nil {
			return nil, err
		}
		remaining -= step
	}
	return out, nil
}
