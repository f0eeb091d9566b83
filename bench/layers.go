package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	alae "repro"
	"repro/internal/align"
	"repro/internal/blast"
	"repro/internal/bwt"
	"repro/internal/bwtsw"
	"repro/internal/core"
	"repro/internal/domination"
	"repro/internal/evalue"
	"repro/internal/qgram"
	"repro/internal/sais"
	"repro/internal/strie"
)

// The traced run measures every layer from outside, through its
// exported functions, on the workload's own text and queries. It is
// the same sequence for every workload — the library layers under an
// Index of the text, then the store and daemon layers over the text
// cut into members — so each metric is a column one can read down the
// workloads: same call, different regime.

// probe carries what the layer timings share.
type probe struct {
	*run
	window  time.Duration // length of one sample of a repeated timing
	queries [][]byte      // the queries replayed whole
	few     [][]byte      // the leading queries ratio metrics are taken on
	trie    *strie.Trie
	fm      *bwt.FMIndex // the reversed-text index searches walk
	letters []byte
	tr      *tracer
	rng     uint64
}

const (
	replayPasses = 2 // traced and untraced reference passes, after one unrecorded pass of each
	fewQueries   = 4
	ratioReps    = 2 // executions a ratio's numerator and denominator are each the least of
)

// next is xorshift64: the pseudo-random coordinates of the rank and
// walk timings must cost nothing next to the call they feed.
func (p *probe) next() uint64 {
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	return p.rng
}

// below maps 32 pseudo-random bits onto [0, n) by multiply and shift; a
// division would cost as much as the rank it feeds.
func below(bits32 uint64, n int) int { return int(bits32 & 0xffffffff * uint64(n) >> 32) }

// existingEdge picks a pseudo-random letter whose extension, as
// ExtendAll or Children left it in los and his, is not empty: the
// drawn letter, or the next one that exists.
func (p *probe) existingEdge(los, his []int32) int {
	k := below(p.next()>>32, len(los))
	for try := 0; try < len(los) && los[k] >= his[k]; try++ {
		k = (k + 1) % len(los)
	}
	return k
}

// perUnit times fn, which does the returned number of units of work
// per call, over five samples of at least window each and returns the
// least nanoseconds per unit (like every timing here: a disturbance only
// ever adds). Three samples when one call dwarfs the window.
func (p *probe) perUnit(fn func() int) float64 {
	samples := 5
	var ns []float64
	for len(ns) < samples {
		units, start := 0, time.Now()
		for units == 0 || time.Since(start) < p.window {
			units += fn()
		}
		elapsed := time.Since(start)
		if elapsed > 8*p.window {
			samples = 3
		}
		ns = append(ns, float64(elapsed.Nanoseconds())/float64(units))
	}
	return slices.Min(ns)
}

// seconds is the least wall time of ratioReps executions of fn.
func seconds(fn func() error) (float64, error) {
	var s []float64
	for i := 0; i < ratioReps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		s = append(s, time.Since(start).Seconds())
	}
	return slices.Min(s), nil
}

func (r *run) tracedRun() error {
	w := r.w
	p := &probe{
		run: r, window: time.Duration(r.cfg.seconds / 100 * float64(time.Second)),
		queries: w.queries, tr: newTracer(), rng: uint64(r.cfg.seed)*2654435761 + 88172645463325252,
	}
	if w.served {
		p.queries = p.queries[:min(len(p.queries), 48)]
	}
	p.few = p.queries[:min(len(p.queries), fewQueries)]

	ix := alae.NewIndex(w.text)
	if _, err := ix.DominationIndexSize(w.scheme); err != nil {
		return err
	}
	p.trie = strie.New(w.text)
	p.fm = p.trie.Index()
	p.letters = p.trie.Letters()
	engine := core.NewFromTrie(p.trie, core.Options{Mode: core.ModeDFS})
	if err := p.libraryReplay(ix, engine); err != nil {
		return err
	}
	if err := p.engineRatios(ix, engine); err != nil {
		return err
	}
	if err := p.buildLayers(); err != nil {
		return err
	}
	p.walkLayers()
	if err := p.storeLayers(ix); err != nil {
		return err
	}

	// The oracle also yields the dense sweep's cell rate, the roofline
	// an ALAE entry's cost is stated against.
	r.checkPinned(ix)
	gotoh := r.checkLibraryOracle(ix, 0) // one query: the budget belongs to the layer timings
	r.rep.set("align.gotoh_mcells_per_s", gotoh, "Mcells/s")
	r.rep.set("core.entry_cost_over_gotoh", r.rep.Metrics["core.ns_per_entry"].Value*gotoh/1000, "ratio")
	return writeJSON(filepath.Join(r.cfg.out, "trace-"+w.name+".json"), struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, r.cfg.seed, p.tr.spans})
}

// untracedPass runs the queries through Index.Search with no spans, the
// way the end-to-end passes do, and returns the time and the allocation
// volume per query.
func (p *probe) untracedPass(ix *alae.Index) (perQueryMS, allocBytes float64, err error) {
	opts := p.w.searchOptions()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for qi, q := range p.queries {
		if _, err := ix.Search(q, opts); err != nil {
			return 0, 0, fmt.Errorf("query %d: %w", qi, err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	p.rep.Attempted += len(p.queries)
	n := float64(len(p.queries))
	return ms(elapsed) / n, float64(after.TotalAlloc-before.TotalAlloc) / n, nil
}

// libraryReplay runs every query decomposed into the calls Index.Search
// makes, with a span around each: the threshold, the search into a
// fresh collector (with an explicit gram resolution as its child, the
// stage the search repeats inside), and the collection of sorted hits.
// The collector is fresh per query because Index.Search's is: growing
// it is part of what an emission-heavy search costs. Each replayed pass
// follows an untraced pass over the same queries, so that the two are
// compared under the same weather.
func (p *probe) libraryReplay(ix *alae.Index, engine *core.Engine) error {
	w, tr, opts := p.w, p.tr, p.w.searchOptions()
	ses := engine.AcquireSession()
	defer ses.Release()
	ctx := context.Background()

	var searchMS, resolveUS, nsPerEntry, nsPerHit, rootMS, untracedMS, allocs []float64
	var total counts
	for pass := -1; pass < replayPasses; pass++ { // pass -1 warms the index and the bench-owned engine, unrecorded
		if pass == 0 {
			tr.spans = tr.spans[:0]
		}
		perQuery, alloc, err := p.untracedPass(ix)
		if err != nil {
			return err
		}
		if pass >= 0 {
			untracedMS, allocs = append(untracedMS, perQuery), append(allocs, alloc)
		}
		var searchNS, resolveNS, collectNS, rootNS time.Duration
		total = counts{}
		for qi, q := range p.queries {
			root := tr.begin(0, qi, "query")
			id := tr.begin(root, qi, "evalue.threshold")
			h, err := ix.ResolveThreshold(len(q), opts)
			tr.end(id)
			if err != nil {
				return err
			}

			search := tr.begin(root, qi, "core.search")
			id = tr.begin(search, qi, "core.resolve")
			_, _, err = ses.ResolveGrams(q, w.scheme)
			resolve := tr.end(id)
			if err != nil {
				return err
			}
			coll := align.NewCollector()
			st, err := ses.SearchContext(ctx, q, w.scheme, h, coll, 1)
			searchNS += tr.end(search) - resolve
			resolveNS += resolve
			if err != nil {
				return err
			}
			tr.count(search, "entries", st.CalculatedEntries())
			tr.count(search, "emitted", st.EmittedHits)

			id = tr.begin(root, qi, "align.collect")
			hits := coll.Hits()
			collectNS += tr.end(id)
			tr.count(id, "hits", int64(len(hits)))
			rootNS += tr.end(root)
			total.add(counts{st.CalculatedEntries(), int64(len(hits)), st.EmittedHits})
		}
		if pass < 0 {
			continue
		}
		n := float64(len(p.queries))
		searchMS = append(searchMS, ms(searchNS)/n)
		resolveUS = append(resolveUS, ms(resolveNS)*1000/n)
		nsPerEntry = append(nsPerEntry, float64(searchNS.Nanoseconds())/float64(max(total.Entries, 1)))
		nsPerHit = append(nsPerHit, float64(collectNS.Nanoseconds())/float64(max(total.Hits, 1)))
		rootMS = append(rootMS, ms(rootNS)/n)
	}
	p.rep.Counts, p.rep.Passes = total, replayPasses
	n := float64(len(p.queries))
	p.rep.setBest("core.search_ms", searchMS, "ms")
	p.rep.setBest("core.resolve_us", resolveUS, "us")
	p.rep.setBest("core.ns_per_entry", nsPerEntry, "ns")
	p.rep.setBest("align.collect_ns_per_hit", nsPerHit, "ns")
	p.rep.set("core.entries_per_query", float64(total.Entries)/n, "count")
	p.rep.set("core.emitted_per_query", float64(total.Emitted)/n, "count")
	p.rep.set("core.entries_over_nm", float64(total.Entries)/(n*float64(len(w.text))*w.queryLen()), "ratio")
	p.rep.set("core.hits_per_entry", float64(total.Hits)/float64(max(total.Entries, 1)), "ratio")
	p.rep.set("core.alloc_bytes_per_search", median(allocs), "B")
	p.rep.set("alae.index_over_core", slices.Min(untracedMS)/slices.Min(searchMS), "ratio")

	self, roots := selfTimes(tr.spans), float64(rootTime(tr.spans, "query"))
	for _, name := range []string{"evalue.threshold", "core.resolve", "core.search", "align.collect"} {
		p.rep.set("trace."+name+".self_share", float64(self[name])/roots, "ratio")
	}
	over := slices.Min(rootMS) / slices.Min(untracedMS)
	p.rep.set("trace.replay_over_e2e", over, "ratio")
	if over < 0.95 || over > 1.15 {
		p.rep.flag("trace.replay_over_e2e is %.3f, outside 0.95-1.15: the decomposed replay does not add up to Index.Search, so its split is not to be trusted", over)
	}
	return nil
}

// engineRatios compares, on the leading queries, the engines and
// dispatch modes that answer the same query: hybrid against DFS, two
// lanes against one, and the paper's two baselines against ALAE.
func (p *probe) engineRatios(ix *alae.Index, engine *core.Engine) error {
	w, ctx := p.w, context.Background()
	coll := align.NewCollector()
	h := make([]int, len(p.few))
	for i, q := range p.few {
		var err error
		if h[i], err = ix.ResolveThreshold(len(q), w.searchOptions()); err != nil {
			return err
		}
	}
	// over times one engine on the leading queries and returns the
	// stats and hit count of its last repetition.
	over := func(search func(qi int, q []byte) (core.Stats, error)) (float64, core.Stats, int, error) {
		var st core.Stats
		var hits int
		s, err := seconds(func() error {
			st, hits = core.Stats{}, 0
			for qi, q := range p.few {
				coll.Reset()
				one, err := search(qi, q)
				if err != nil {
					return err
				}
				st.Add(one)
				hits += coll.Len()
			}
			return nil
		})
		return s, st, hits, err
	}
	ses := engine.AcquireSession()
	defer ses.Release()
	lanes := func(k int) func(int, []byte) (core.Stats, error) {
		return func(qi int, q []byte) (core.Stats, error) { return ses.SearchLanes(ctx, q, w.scheme, h[qi], coll, k) }
	}
	dfs, dfsStats, exactHits, err := over(lanes(1))
	if err != nil {
		return err
	}
	two, _, _, err := over(lanes(2))
	if err != nil {
		return err
	}
	p.rep.set("core.lanes2_speedup", dfs/two, "ratio")

	hses := core.NewFromTrie(p.trie, core.Options{Mode: core.ModeHybrid}).AcquireSession()
	defer hses.Release()
	hybrid, hybridStats, _, err := over(func(qi int, q []byte) (core.Stats, error) {
		return hses.SearchContext(ctx, q, w.scheme, h[qi], coll, 1)
	})
	if err != nil {
		return err
	}
	p.rep.set("core.hybrid_over_dfs", hybrid/dfs, "ratio")
	p.rep.set("core.hybrid_reuse_ratio", hybridStats.ReusingRatio(), "ratio")

	bw := bwtsw.NewFromTrie(p.trie)
	var bwEntries int64
	bwTime, _, _, err := over(func(qi int, q []byte) (core.Stats, error) {
		if qi == 0 {
			bwEntries = 0
		}
		bwEntries += bw.Search(q, w.scheme, h[qi], coll).CalculatedEntries
		return core.Stats{}, nil
	})
	if err != nil {
		return err
	}
	p.rep.set("bwtsw.entries_over_alae", float64(bwEntries)/float64(max(dfsStats.CalculatedEntries(), 1)), "ratio")
	p.rep.set("bwtsw.time_over_alae", bwTime/dfs, "ratio")

	bl := blast.New(w.text, p.letters, blast.Options{})
	blTime, _, blastHits, err := over(func(qi int, q []byte) (core.Stats, error) {
		bl.Search(q, w.scheme, h[qi], coll)
		return core.Stats{}, nil
	})
	if err != nil {
		return err
	}
	p.rep.set("blast.time_over_alae", blTime/dfs, "ratio")
	p.rep.set("blast.recall", float64(blastHits)/float64(max(exactHits, 1)), "ratio")
	return nil
}

// buildLayers times what index construction is made of.
func (p *probe) buildLayers() error {
	w := p.w
	n := len(w.text)
	p.rep.set("sais.build_ns_per_char", p.perUnit(func() int { sais.Build(w.text); return n }), "ns")
	p.rep.set("bwt.build_ns_per_char", p.perUnit(func() int { bwt.New(w.text); return n }), "ns")
	p.rep.set("bwt.bytes_per_char", float64(p.fm.SizeBytes())/float64(n), "B")
	q := w.scheme.Q()
	var err error
	p.rep.set("domination.build_ns_per_char", p.perUnit(func() int {
		if _, e := domination.Build(w.text, q, p.letters); e != nil {
			err = e
		}
		return n
	}), "ns")
	if err != nil {
		return err
	}
	gram, err := qgram.New(p.queries[0], q, p.letters)
	if err != nil {
		return err
	}
	p.rep.set("qgram.rearm_ns_per_char", p.perUnit(func() int {
		chars := 0
		for _, query := range p.queries {
			if e := gram.Rearm(query, q, p.letters); e != nil {
				err = e
			}
			chars += len(query)
		}
		return chars
	}), "ns")
	if err != nil {
		return err
	}
	m := len(p.queries[0])
	p.rep.set("evalue.threshold_us", p.perUnit(func() int {
		for i := 0; i < 64; i++ {
			if _, e := evalue.ThresholdFor(w.scheme, len(p.letters), m+i, n, 10); e != nil {
				err = e
			}
		}
		return 64
	})/1000, "us")
	return err
}

// walkLayers times the index operations a traversal is made of, at
// seeded pseudo-random coordinates so that the cache regime is the
// index's own: a 200 kb index stays in L2, a 4 Mb one does not.
func (p *probe) walkLayers() {
	fm, sigma, rows := p.fm, p.fm.Sigma(), p.fm.Rows()
	p.rep.set("bwt.rank_ns", p.perUnit(func() int {
		for i := 0; i < 4096; i++ {
			x := p.next()
			spinSink += uint64(fm.Rank(below(x>>32, sigma), below(x, rows)))
		}
		return 4096
	}), "ns")

	// A seeded walk: descend from the root along pseudo-random existing
	// edges until the range is a single row, then start over.
	los, his := make([]int32, sigma), make([]int32, sigma)
	lo, hi := fm.InitRange()
	p.rep.set("bwt.extendall_ns", p.perUnit(func() int {
		for i := 0; i < 1024; i++ {
			fm.ExtendAll(lo, hi, los, his)
			k := p.existingEdge(los, his)
			if lo, hi = int(los[k]), int(his[k]); hi-lo <= 1 {
				lo, hi = fm.InitRange()
			}
		}
		return 1024
	}), "ns")

	nodes := make([]strie.Node, sigma)
	u := p.trie.Root()
	p.rep.set("strie.children_ns", p.perUnit(func() int {
		for i := 0; i < 1024; i++ {
			p.trie.Children(u, nodes, los, his)
			if u = nodes[p.existingEdge(los, his)]; u.Hi-u.Lo <= 1 {
				u = p.trie.Root()
			}
		}
		return 1024
	}), "ns")

	// Locate the occurrences of 256 pseudo-random text substrings with
	// at most 64 occurrences each — the range widths an emitting node has.
	type rowRange struct{ lo, hi int }
	var ranges []rowRange
	for len(ranges) < 256 {
		lo, hi := fm.InitRange()
		for hi-lo > 64 {
			fm.ExtendAll(lo, hi, los, his)
			k := p.existingEdge(los, his)
			lo, hi = int(los[k]), int(his[k])
		}
		if hi > lo {
			ranges = append(ranges, rowRange{lo, hi})
		}
	}
	var buf []int
	p.rep.set("bwt.locate_ns_per_occ", p.perUnit(func() int {
		occ := 0
		for _, r := range ranges {
			buf = fm.LocateAppend(r.lo, r.hi, buf[:0])
			occ += len(buf)
		}
		return occ
	}), "ns")

	// Seeded runs of 8 to 39 cells on pseudo-random diagonals.
	coll := align.NewCollector()
	scores := make([]int32, 40)
	for i := range scores {
		scores[i] = int32(20 + i)
	}
	n, m := len(p.w.text), len(p.queries[0])
	p.rep.set("align.addrun_ns_per_cell", p.perUnit(func() int {
		coll.Reset()
		cells := 0
		for i := 0; i < 4096; i++ {
			x := p.next()
			run := scores[:8+int(x>>59)]
			coll.AddRun(below(x, n), below(x>>32, m), run)
			cells += len(run)
		}
		return cells
	}), "ns")
}

// storeLayers measures the layers above the index: the store's scatter
// and gather, its cache and mutations, persistence, and the daemon's
// HTTP and JSON cost over a direct call.
func (p *probe) storeLayers(ix *alae.Index) error {
	w, opts := p.w, p.w.searchOptions()
	uncached := alae.StoreOptions{Shards: 1, QueryCacheSize: -1}
	one, err := alae.NewStore([]alae.SeqRecord{{Name: "all", Seq: w.text}}, uncached)
	if err != nil {
		return err
	}
	many, err := alae.NewStore(w.members(storeMembers), uncached)
	if err != nil {
		return err
	}
	searchFew := func(search func(q []byte) error) (float64, error) {
		return seconds(func() error {
			for _, q := range p.few {
				if err := search(q); err != nil {
					return err
				}
			}
			return nil
		})
	}
	onIndex, err := searchFew(func(q []byte) error { _, err := ix.Search(q, opts); return err })
	if err != nil {
		return err
	}
	onOne, err := searchFew(func(q []byte) error { _, err := one.Search(q, opts); return err })
	if err != nil {
		return err
	}
	onMany, err := searchFew(func(q []byte) error { _, err := many.Search(q, opts); return err })
	if err != nil {
		return err
	}
	p.rep.set("alae.store_over_index", onOne/onIndex, "ratio")
	p.rep.set("alae.gather64_over_single", onMany/onOne, "ratio")

	some := p.queries[:min(len(p.queries), 2*fewQueries)]
	w1, err := seconds(func() error { _, err := many.SearchAll(some, opts, 1); return err })
	if err != nil {
		return err
	}
	w2, err := seconds(func() error { _, err := many.SearchAll(some, opts, 2); return err })
	if err != nil {
		return err
	}
	p.rep.set("alae.searchall_w2_speedup", w1/w2, "ratio")

	if err := p.httpReplay(many); err != nil {
		return err
	}

	// A cached store answers a repeated query from the result cache.
	cached, err := alae.NewStore(w.members(storeMembers), alae.StoreOptions{Shards: 1})
	if err != nil {
		return err
	}
	p.rep.set("alae.cache_hit_us", p.perUnit(func() int {
		for _, q := range p.few {
			if _, e := cached.Search(q, opts); e != nil {
				err = e
			}
		}
		return len(p.few)
	})/1000, "us")
	if err != nil {
		return err
	}

	if err := p.mutations(many); err != nil {
		return err
	}
	return p.persistence(many) // last: SaveDir ties the store to a directory that is then removed
}

// mutations runs serve-mixed's mutating client on st, twice over. First
// with nobody reading: its schedule of three appends, three deletes and
// a compaction per pass, the quickest of each reported. Then loaded, as
// serve-mixed on this workload's inputs: a daemon over st, the
// workload's two clients each running its request list closed loop,
// client 0 mutating on the way, and the median Append and Compact
// reported — waiting for the readers is the measurement there, not a
// disturbance. Same schedule, same store state, so the gap between the
// two is the contention.
func (p *probe) mutations(st *alae.Store) error {
	mut := &mutator{w: p.w, store: st}
	for i := -1; i < replayPasses; i++ { // pass -1 grows the store to its steady size, unrecorded
		if i == 0 {
			mut.forget()
		}
		for slot := 0; slot < 15; slot++ {
			if err := mut.before(slot, 15); err != nil {
				return err
			}
		}
	}
	kchars := float64(len(p.w.appendPool[0])) / 1000
	p.rep.set("alae.append_ms_per_kchar", slices.Min(mut.appendMS)/kchars, "ms")
	p.rep.set("alae.delete_us", slices.Min(mut.deleteMS)*1000, "us")
	p.rep.set("alae.compact_ms", slices.Min(mut.compactMS), "ms")

	d, err := startDaemon(p.w, st)
	if err != nil {
		return err
	}
	bodies := requestBodies(p.w.queries)
	for i := -1; i < replayPasses && err == nil; i++ { // pass -1 warms the connections and the sessions, unrecorded
		if i == 0 {
			mut.forget()
		}
		var served pass
		if served, err = p.servedPass(d, mut, bodies); err == nil {
			p.rep.attemptPass(served)
		}
	}
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	p.rep.setMedian("alae.append_loaded_ms", mut.appendMS, "ms")
	p.rep.setMedian("alae.compact_loaded_ms", mut.compactMS, "ms")
	return nil
}

// persistence times a save to memory, the reload from it, and a
// directory save onto whatever disk the sandbox has (labelled as such:
// it measures the sandbox).
func (p *probe) persistence(st *alae.Store) error {
	var file bytes.Buffer
	save, err := seconds(func() error { file.Reset(); return st.Save(&file) })
	if err != nil {
		return err
	}
	load, err := seconds(func() error {
		_, err := alae.LoadStore(bytes.NewReader(file.Bytes()), alae.StoreOptions{Shards: 1})
		return err
	})
	if err != nil {
		return err
	}
	mb := float64(file.Len()) / 1e6
	p.rep.set("alae.store_save_mb_per_s", mb/save, "MB/s")
	p.rep.set("alae.store_load_mb_per_s", mb/load, "MB/s")

	if err := os.MkdirAll(p.cfg.out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(p.cfg.out, "savedir-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	if err := st.SaveDir(filepath.Join(dir, "store")); err != nil {
		return err
	}
	p.rep.set("alae.savedir_ms", ms(time.Since(start)), "ms")
	return nil
}

// httpReplay sends the leading queries to a daemon over st, one client,
// no mutations, and replays each round trip as the direct
// Store.SearchContext call it wraps (st has no result cache, so both do
// the whole search). The difference is what HTTP and JSON cost. A
// pass makes all its round trips first and all its direct calls
// second, so that neither finds the processor caches warmed by the
// other's run of the same query.
func (p *probe) httpReplay(st *alae.Store) error {
	w, tr, opts := p.w, p.tr, p.w.searchOptions()
	d, err := startDaemon(w, st)
	if err != nil {
		return err
	}
	queries := p.queries[:min(len(p.queries), 2*fewQueries)]
	var httpMS, directMS []float64
	var respBytes, shed int
	first := len(tr.spans)
	err = func() error {
		var buf bytes.Buffer
		trips := make([]int, len(queries))            // each query's serve.http span
		for pass := -1; pass < replayPasses; pass++ { // pass -1 warms the connection and the sessions, unrecorded
			if pass == 0 {
				tr.spans = tr.spans[:first]
			}
			for qi, q := range queries {
				root := tr.begin(0, qi, "request")
				trips[qi] = tr.begin(root, qi, "serve.http")
				status, err := d.post(requestBody(q), &buf)
				elapsed := tr.end(trips[qi])
				tr.end(root)
				if err != nil {
					return err
				}
				tr.count(trips[qi], "bytes", int64(buf.Len()))
				switch status {
				case http.StatusOK:
					httpMS = append(httpMS, ms(elapsed))
					respBytes += buf.Len()
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					shed++
				default:
					return fmt.Errorf("replayed request %d: status %d: %s", qi, status, bytes.TrimSpace(buf.Bytes()))
				}
			}
			for qi, q := range queries {
				direct := tr.begin(trips[qi], qi, "alae.store_search")
				res, err := st.SearchContext(context.Background(), q, opts)
				directMS = append(directMS, ms(tr.end(direct)))
				if err != nil {
					return err
				}
				tr.count(direct, "hits", int64(len(res.Hits)))
			}
			if pass < 0 {
				httpMS, directMS, respBytes, shed = nil, nil, 0, 0
			}
		}
		return nil
	}()
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	if len(httpMS) == 0 {
		return fmt.Errorf("every replayed request was shed")
	}
	p.rep.set("serve.http_overhead_us", (median(httpMS)-median(directMS))*1000, "us")
	p.rep.set("serve.bytes_per_response", float64(respBytes)/float64(len(httpMS)), "B")
	p.rep.set("serve.shed_share", float64(shed)/float64(shed+len(httpMS)), "ratio")
	slices.Sort(httpMS)
	p.rep.set("serve.http_p90_ms", quantile(httpMS, 0.9), "ms")

	replayed := tr.spans[first:]
	self, roots := selfTimes(replayed), float64(rootTime(replayed, "request"))
	p.rep.set("trace.serve.http.self_share", float64(self["serve.http"])/roots, "ratio")
	p.rep.set("trace.alae.store_search.self_share", float64(self["alae.store_search"])/roots, "ratio")
	return nil
}
