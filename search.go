package alae

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/bwt"
	"repro/internal/core"
	"repro/internal/strie"
)

// This file holds the production conveniences around the core Search:
// index persistence (build once, reload instantly — the first step of
// the paper's external-memory future work), both-strand DNA search,
// and parallel multi-query search.

// Save serialises the index (text plus compressed suffix array) so a
// later process can Load it instead of rebuilding. The format is
// versioned and validated on load.
func (ix *Index) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(ix.text))); err != nil {
		return err
	}
	if _, err := bw.Write(ix.text); err != nil {
		return err
	}
	if _, err := ix.trie.Index().WriteTo(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads an index written by Save.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	var n uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("alae: reading index: %w", err)
	}
	if n > 1<<40 {
		return nil, fmt.Errorf("alae: implausible text length %d", n)
	}
	text, err := bwt.ReadExact(br, n)
	if err != nil {
		return nil, fmt.Errorf("alae: reading text: %w", err)
	}
	fm, err := bwt.ReadFMIndex(br)
	if err != nil {
		return nil, err
	}
	if fm.Len() != len(text) {
		return nil, fmt.Errorf("alae: index length %d does not match text length %d", fm.Len(), len(text))
	}
	return &Index{
		text: text,
		trie: strie.NewFromIndex(text, fm),
		alae: make(map[engineKey]*core.Engine),
	}, nil
}

// complementTable maps each DNA base to its complement — upper AND
// lower case, plus the IUPAC ambiguity codes — and every other byte to
// itself. Built once so ReverseComplement is a table walk rather than
// a per-byte switch.
//
// The original table only complemented uppercase ACGT, so soft-masked
// (lowercase) or ambiguity-coded FASTA input passed through unchanged
// and SearchBothStrands silently searched a *reversed but
// uncomplemented* strand — wrong answers, no diagnostic.
var complementTable = func() [256]byte {
	var t [256]byte
	for i := range t {
		t[i] = byte(i)
	}
	// Watson–Crick pairs and the paired IUPAC ambiguity codes:
	// R(AG)↔Y(CT), K(GT)↔M(AC), B(CGT)↔V(ACG), D(AGT)↔H(ACT).
	// S(CG), W(AT) and N are their own complements and stay identity.
	for _, p := range [...][2]byte{
		{'A', 'T'}, {'C', 'G'},
		{'R', 'Y'}, {'K', 'M'}, {'B', 'V'}, {'D', 'H'},
	} {
		a, b := p[0], p[1]
		t[a], t[b] = b, a
		t[a|0x20], t[b|0x20] = b|0x20, a|0x20 // lowercase, case-preserving
	}
	return t
}()

// ReverseComplement returns the reverse complement of a DNA sequence.
// Lowercase (soft-masked) bases complement case-preservingly, and the
// IUPAC ambiguity codes map to their complements (R↔Y, K↔M, B↔V, D↔H;
// S, W and N are self-complementary). Bytes outside the DNA alphabet
// (e.g. collection separators) are preserved in place so coordinates
// stay meaningful. Note that Index matching is byte-exact: soft-masked
// input should be case-normalised to the index's case before
// searching, and N never matches an ACGT text (it can still sit inside
// a hit as a mismatch).
func ReverseComplement(s []byte) []byte {
	out := make([]byte, len(s))
	for i, c := range s {
		out[len(s)-1-i] = complementTable[c]
	}
	return out
}

// Strand labels a hit's query orientation.
type Strand int

const (
	// Forward means the query aligned as given.
	Forward Strand = iota
	// Reverse means the reverse complement of the query aligned.
	Reverse
)

// StrandHit is a hit annotated with its strand. For Reverse hits, QEnd
// is a position in the reverse-complemented query.
type StrandHit struct {
	Hit
	Strand Strand
}

// SearchBothStrands runs the query and its reverse complement — how
// nucleotide searches are actually performed, since a homologous
// region can sit on either strand of the genome.
func (ix *Index) SearchBothStrands(query []byte, opts SearchOptions) ([]StrandHit, error) {
	fwd, err := ix.Search(query, opts)
	if err != nil {
		return nil, err
	}
	rev, err := ix.Search(ReverseComplement(query), opts)
	if err != nil {
		return nil, err
	}
	out := make([]StrandHit, 0, len(fwd.Hits)+len(rev.Hits))
	for _, h := range fwd.Hits {
		out = append(out, StrandHit{Hit: h, Strand: Forward})
	}
	for _, h := range rev.Hits {
		out = append(out, StrandHit{Hit: h, Strand: Reverse})
	}
	return out, nil
}

// searchAllStarted, when non-nil, observes each query index a
// SearchAll worker (Index's or Store's) picks up. Test hook for the
// cancellation contract; never set in production code.
var searchAllStarted func(qi int)

// SearchAll runs many queries concurrently over the shared index with
// the given parallelism (0 means one worker per query up to 8) and
// returns the results in query order. The first error in query order
// stops the batch — queries not yet started are never launched — and
// is returned wrapped with its query index; a configuration error is
// returned unwrapped before any query runs (see searchAll). Each worker
// holds one Session for its whole run, so per-query state (q-gram
// inverted index, δ score table, bound tables, collector, traversal
// workspace) is re-armed in place between queries instead of rebuilt.
func (ix *Index) SearchAll(queries [][]byte, opts SearchOptions, workers int) ([]*Result, error) {
	return searchAll(context.Background(), opts, len(queries), workers, "query", []*Index{ix},
		func() (*Session, error) { return ix.OpenSession(opts) },
		func(ses *Session, qi int) (*Result, error) { return ses.Search(queries[qi]) },
		(*Session).Close)
}

// searchAll is the one multi-query pool, behind Index.SearchAll and
// Store.SearchAllContext: it answers n queries on min(workers, n)
// goroutines (workers ≤ 0 means 8) and returns their results in query
// order.
//
// Options are checked once, by resolveScheme, and a configuration error
// is returned as it is. For ALAE, the domination index of the scheme's
// q is then built once on each of warm, so workers never race to build
// it redundantly; from then on it is read-only and shared. open is
// called once per worker, before any worker starts, for the lane the
// worker searches with and hands to release when it is done; an open
// error is returned as it is.
//
// First-error determinism: workers claim query indexes from an atomic
// cursor in ascending order, so when any query fails, every
// lower-indexed query has already been claimed and runs to completion
// on its worker. Each failure CAS-min's its index into a shared slot;
// after the pool drains, that slot holds the globally lowest failing
// index among the queries that ran — the same error every time,
// however the workers interleave — and it is returned wrapped as
// "alae: <what> <index>: <error>". No query is claimed after a failure
// is marked. A context error outranks any per-query failure it
// induced, and is returned bare.
func searchAll[L, R any](cx context.Context, opts SearchOptions, n, workers int, what string, warm []*Index,
	open func() (L, error), search func(lane L, qi int) (R, error), release func(L)) ([]R, error) {
	if workers <= 0 {
		workers = 8
	}
	workers = min(workers, n)
	if workers == 0 {
		return nil, nil
	}
	s, err := resolveScheme(opts)
	if err != nil {
		return nil, err
	}
	if opts.Algorithm == ALAE {
		for _, ix := range warm {
			if _, err := ix.DominationIndexSize(s); err != nil {
				return nil, err
			}
		}
	}
	lanes := make([]L, workers)
	for w := range lanes {
		if lanes[w], err = open(); err != nil {
			for _, lane := range lanes[:w] {
				release(lane)
			}
			return nil, err
		}
	}
	results := make([]R, n)
	errs := make([]error, n)
	var (
		wg       sync.WaitGroup
		cursor   atomic.Int64
		failedAt atomic.Int64 // lowest failing query index; n = none
	)
	failedAt.Store(int64(n))
	for _, lane := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer release(lane)
			for failedAt.Load() == int64(n) {
				qi := int(cursor.Add(1)) - 1
				if qi >= n {
					return
				}
				if searchAllStarted != nil {
					searchAllStarted(qi)
				}
				if results[qi], errs[qi] = search(lane, qi); errs[qi] == nil {
					continue
				}
				// CAS-min qi into failedAt. errs[qi] is written first;
				// wg.Wait() publishes both to the final read.
				for {
					cur := failedAt.Load()
					if int64(qi) >= cur || failedAt.CompareAndSwap(cur, int64(qi)) {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := cx.Err(); err != nil {
		return nil, err
	}
	if fa := int(failedAt.Load()); fa < n {
		return nil, fmt.Errorf("alae: %s %d: %w", what, fa, errs[fa])
	}
	return results, nil
}
