package alae

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// This file holds the production conveniences around the core Search:
// the DNA reverse complement and parallel multi-query search.

// complementTable maps each DNA base to its complement — upper AND
// lower case, plus the IUPAC ambiguity codes — and every other byte to
// itself. Built once so ReverseComplement is a table walk rather than
// a per-byte switch.
//
// The original table only complemented uppercase ACGT, so soft-masked
// (lowercase) or ambiguity-coded FASTA input passed through unchanged
// and a both-strand search silently searched a *reversed but
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
// holds one lane for its whole run, so per-query state (q-gram
// inverted index, δ score table, bound tables, collector, traversal
// workspace) is re-armed in place between queries instead of rebuilt;
// the results equal Index.Search's, query by query.
func (ix *Index) SearchAll(queries [][]byte, opts SearchOptions, workers int) ([]*Result, error) {
	return searchAll(context.Background(), opts, len(queries), workers, "query",
		func(s Scheme) *lane { return ix.newLane(opts, s) },
		func(ln *lane, qi int) (*Result, error) { return ln.searchIndex(context.Background(), queries[qi]) },
		(*lane).release)
}

// searchAll is the one multi-query pool, behind Index.SearchAll and
// Store.SearchAllContext: it answers n queries on min(workers, n)
// goroutines (workers ≤ 0 means 8) and returns their results in query
// order.
//
// Options are checked once, by resolveScheme, and a configuration error
// is returned as it is. open is then called once per worker, with the
// resolved scheme, for the lane the worker searches with and hands to
// release when it is done.
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
func searchAll[L, R any](cx context.Context, opts SearchOptions, n, workers int, what string,
	open func(Scheme) L, search func(ln L, qi int) (R, error), release func(L)) ([]R, error) {
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
	results := make([]R, n)
	errs := make([]error, n)
	var (
		wg       sync.WaitGroup
		cursor   atomic.Int64
		failedAt atomic.Int64 // lowest failing query index; n = none
	)
	failedAt.Store(int64(n))
	for range workers {
		ln := open(s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer release(ln)
			for failedAt.Load() == int64(n) {
				qi := int(cursor.Add(1)) - 1
				if qi >= n {
					return
				}
				if searchAllStarted != nil {
					searchAllStarted(qi)
				}
				if results[qi], errs[qi] = search(ln, qi); errs[qi] == nil {
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
