package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	alae "repro"
	"repro/internal/align"
)

// pass is what one closed-loop pass over a workload's requests
// measured.
type pass struct {
	wall      time.Duration
	latencyMS []float64 // one per operation, in request order, client after client; +Inf where it failed
	failures  []error   // one per operation that failed or was refused
	counts    counts
}

// completed lists the latencies of the operations that succeeded.
func (p pass) completed() []float64 {
	return slices.DeleteFunc(slices.Clone(p.latencyMS), func(l float64) bool { return math.IsInf(l, 1) })
}

// run carries one workload's run from set-up to report.
type run struct {
	w   *workload
	cfg config
	rep *report
}

// timeSetups repeats build until three repetitions and a second and a
// half have passed (nine at most), reports the quickest as setup_s — the
// same least-of-several estimate the query timings use, and for the same
// reason: between a quiet and a disturbed quarter of an hour the median
// of the repetitions moved by 30-40% on the small workloads — and
// returns what the last repetition built. release tears down a
// repetition that is not kept.
func timeSetups[T any](r *run, build func() (T, error), release func(T)) (T, error) {
	var (
		kept    T
		seconds []float64
		total   time.Duration
	)
	for rep := 0; rep < 9 && (rep < 3 || total < 1500*time.Millisecond); rep++ {
		if rep > 0 && release != nil {
			release(kept)
		}
		var zero T
		kept = zero
		runtime.GC() // the previous repetition's index must not be this one's GC debt
		start := time.Now()
		built, err := build()
		if err != nil {
			return kept, err
		}
		d := time.Since(start)
		kept, total = built, total+d
		seconds = append(seconds, d.Seconds())
	}
	r.rep.setBest("setup_s", seconds, "s")
	return kept, nil
}

// setupIndex is what a library user waits for before the first answer:
// the index, the domination index of the scheme, and one query.
func (r *run) setupIndex() (*alae.Index, error) {
	return timeSetups(r, func() (*alae.Index, error) {
		ix := alae.NewIndex(r.w.text)
		if _, err := ix.DominationIndexSize(r.w.scheme); err != nil {
			return nil, err
		}
		_, err := ix.Search(r.w.queries[0], r.w.searchOptions())
		return ix, err
	}, nil)
}

// libraryPass runs every query once through Index.Search, one caller.
func (r *run) libraryPass(ix *alae.Index) (pass, error) {
	opts := r.w.searchOptions()
	p := pass{latencyMS: make([]float64, 0, len(r.w.queries))}
	start := time.Now()
	for qi, q := range r.w.queries {
		t0 := time.Now()
		res, err := ix.Search(q, opts)
		if err != nil {
			return p, fmt.Errorf("query %d: %w", qi, err)
		}
		p.latencyMS = append(p.latencyMS, ms(time.Since(t0)))
		p.counts.add(counts{res.Stats.CalculatedEntries, int64(len(res.Hits)), res.Stats.EmittedHits})
	}
	p.wall = time.Since(start)
	return p, nil
}

// timedPasses runs two warm-up passes, reads the live heap (after
// settle, when there is something to settle first), then runs timed
// passes until cfg.seconds have been measured (at least minPasses),
// checking that every pass does exactly the same work.
func (r *run) timedPasses(onePass func() (pass, error), settle func()) ([]pass, error) {
	var first counts
	check := func(i int, p pass, err error) error {
		if err != nil {
			return err
		}
		r.rep.attemptPass(p)
		if i == 0 {
			first = p.counts
		} else if !r.w.served && p.counts != first {
			r.rep.failf("pass %d did different work: %+v, first pass %+v", i, p.counts, first)
		}
		return nil
	}
	for i := 0; i < r.cfg.warmups; i++ {
		p, err := onePass()
		if err := check(i, p, err); err != nil {
			return nil, err
		}
	}
	r.rep.Counts = first
	if settle != nil {
		settle()
	}
	r.rep.set("live_heap_mb", liveHeapMB(), "MiB")

	var (
		passes  []pass
		measure = time.Duration(r.cfg.seconds * float64(time.Second))
		start   = time.Now()
	)
	for len(passes) < r.cfg.passes || (r.cfg.passes == 0 && (len(passes) < minPasses || time.Since(start) < measure)) {
		p, err := onePass()
		if err := check(r.cfg.warmups+len(passes), p, err); err != nil {
			return nil, err
		}
		passes = append(passes, p)
		r.rep.SpinMS = append(r.rep.SpinMS, spinMS())
	}
	r.rep.Passes = len(passes)
	return passes, nil
}

// minPasses is the floor under the time-based pass count: a median of
// fewer passes did not repeat in the sizing runs.
const minPasses = 7

// liveHeapMB is the heap that survives two collections: the second
// empties the sync.Pool victim caches, whose session buffers are not
// something the program retains.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// reportThroughput turns timed passes into the user-visible timing
// metrics, each a statistic of one whole pass: query_qps the operations
// completed per wall-second of the pass (all callers together, and on
// serve-mixed the time client 0 spends mutating included), query_p50_ms
// the pass's median operation latency. chars is the database size the
// GCUPS unit is stated against.
//
// The reported value is the best pass, like every timing here (see
// timeSetups): it is a rate one pass did sustain, and what disturbs a
// sandbox only ever slows a pass down. All per-pass values are kept as
// samples: they are what marks a run noisy and what compare calls
// unresolved.
func (r *run) reportThroughput(passes []pass, chars int) {
	qps := make([]float64, len(passes))
	gcups := make([]float64, len(passes))
	p50 := make([]float64, len(passes))
	for i, p := range passes {
		done := p.completed()
		qps[i] = float64(len(done)) / p.wall.Seconds()
		gcups[i] = float64(chars) * r.w.queryLen() * qps[i] / 1e9
		p50[i] = median(done)
	}
	r.rep.setHighest("query_qps", qps, "1/s")
	r.rep.setHighest("effective_gcups", gcups, "Gcells/s")
	r.rep.setBest("query_p50_ms", p50, "ms")
	if s := r.rep.Samples["query_qps"]; (s.Max-s.Min)/s.Median > 0.30 {
		r.rep.Noisy = true
	}
}

// oracleBudget is the number of Gotoh cells one run spends checking
// answers; queries are checked from a seed-chosen start until it is
// used up, at least one.
const oracleBudget = 250_000_000

// oracleQueries picks which queries the dense sweep re-answers within
// budget cells.
func (r *run) oracleQueries(budget int) []int {
	w := r.w
	start := int(r.cfg.seed%int64(len(w.queries))+int64(len(w.queries))) % len(w.queries)
	var picked []int
	cells := 0
	for i := 0; i < len(w.queries); i++ {
		qi := (start + i) % len(w.queries)
		cells += len(w.text) * len(w.queries[qi])
		if len(picked) > 0 && cells > budget {
			break
		}
		picked = append(picked, qi)
	}
	slices.Sort(picked)
	return picked
}

// checkLibraryOracle re-answers the picked queries with the full
// three-matrix Gotoh sweep at the threshold the result reported and
// requires identical hits. It returns the sweep's cell rate.
func (r *run) checkLibraryOracle(ix *alae.Index, budget int) (mcellsPerS float64) {
	var cells int
	var spent time.Duration
	for _, qi := range r.oracleQueries(budget) {
		q := r.w.queries[qi]
		res, err := ix.Search(q, r.w.searchOptions())
		if err != nil {
			r.rep.attempt(fmt.Errorf("oracle query %d: %w", qi, err))
			continue
		}
		start := time.Now()
		want := align.LocalAll(r.w.text, q, r.w.scheme, res.Threshold)
		spent += time.Since(start)
		cells += len(r.w.text) * len(q)
		if align.EqualHits(res.Hits, want) {
			r.rep.attempt(nil)
		} else {
			r.rep.attempt(fmt.Errorf("query %d: Index.Search returned %d hits, the Gotoh sweep %d, or they differ", qi, len(res.Hits), len(want)))
		}
	}
	return float64(cells) / spent.Seconds() / 1e6
}

// libraryEndToEnd measures what a caller of Index.Search waits for.
func (r *run) libraryEndToEnd() error {
	ix, err := r.setupIndex()
	if err != nil {
		return err
	}
	passes, err := r.timedPasses(func() (pass, error) { return r.libraryPass(ix) }, nil)
	if err != nil {
		return err
	}
	r.reportThroughput(passes, len(r.w.text))
	r.rep.set("index_bytes_per_char", float64(ix.SizeBytes())/float64(len(r.w.text)), "B")
	r.checkPinned(ix)
	r.checkLibraryOracle(ix, oracleBudget)
	return nil
}
