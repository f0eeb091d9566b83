package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	alae "repro"
	"repro/internal/align"
	"repro/internal/serve"
)

// daemon is an alae-serve instance on a loopback port, with the client
// side the benchmark drives it through.
type daemon struct {
	store  *alae.Store
	srv    *serve.Server
	http   *http.Server
	served chan error // Serve's return value
	url    string
	client *http.Client
}

// startDaemon serves store the way cmd/alae-serve does, with two lanes
// and no hit cap, so a response carries the whole answer the oracle
// checks.
func startDaemon(w *workload, store *alae.Store) (*daemon, error) {
	srv, err := serve.New(serve.Config{
		Store: store, Options: w.searchOptions(), Lanes: 2, MaxHits: -1,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		store: store, srv: srv, http: srv.HTTPServer(""),
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/search",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// stop drains the daemon and waits until its listener goroutine ended.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The client's spare connections go first: one it dialled but never
	// used would keep Shutdown waiting five seconds for a first request.
	d.client.CloseIdleConnections()
	err := d.srv.Drain(ctx)
	err = errors.Join(err, d.http.Shutdown(ctx))
	if serveErr := <-d.served; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	return err
}

func requestBody(query []byte) []byte {
	body, _ := json.Marshal(serve.SearchRequest{Query: string(query)}) // a string field cannot fail to encode
	return body
}

func requestBodies(queries [][]byte) [][]byte {
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		bodies[i] = requestBody(q)
	}
	return bodies
}

// post sends one search and reads the whole response into buf.
func (d *daemon) post(body []byte, buf *bytes.Buffer) (status int, err error) {
	resp, err := d.client.Post(d.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	return resp.StatusCode, err
}

// mutator is the writing half of serve-mixed: at fixed positions of
// client 0's request list it appends a fresh member, deletes the member
// appended three appends earlier, or compacts, so the live size is
// steady from the second pass on.
type mutator struct {
	w        *workload
	store    *alae.Store
	appended []alae.SeqRecord // live appended members, oldest first
	next     int              // appends so far

	appendMS, deleteMS, compactMS []float64
}

// forget drops the latencies recorded so far.
func (m *mutator) forget() { m.appendMS, m.deleteMS, m.compactMS = nil, nil, nil }

// before performs the mutation scheduled ahead of request i of n, if
// any: the list is cut into fifteenths, appends sit at 2, 6 and 10,
// deletes at 4, 8 and 12, the compaction at 14.
func (m *mutator) before(i, n int) error {
	for slot := 2; slot < 15; slot += 2 {
		if i != slot*n/15 {
			continue
		}
		start := time.Now()
		switch {
		case slot == 14:
			if _, err := m.store.Compact(); err != nil {
				return err
			}
			m.compactMS = append(m.compactMS, ms(time.Since(start)))
		case slot%4 == 2:
			rec := alae.SeqRecord{Name: fmt.Sprintf("a%05d", m.next), Seq: m.w.appendPool[m.next%len(m.w.appendPool)]}
			m.next++
			if err := m.store.Append([]alae.SeqRecord{rec}); err != nil {
				return err
			}
			m.appendMS = append(m.appendMS, ms(time.Since(start)))
			m.appended = append(m.appended, rec)
		case len(m.appended) > 3:
			if n, err := m.store.Delete(m.appended[0].Name); err != nil || n != 1 {
				return fmt.Errorf("Delete(%s) retired %d members: %v", m.appended[0].Name, n, err)
			}
			m.deleteMS = append(m.deleteMS, ms(time.Since(start)))
			m.appended = m.appended[1:]
		}
	}
	return nil
}

// servedPass runs every client's request list once, closed loop, all
// clients at the same time; client 0 also mutates the store.
func (r *run) servedPass(d *daemon, mut *mutator, bodies [][]byte) (pass, error) {
	type clientResult struct {
		latencyMS []float64
		failures  []error
		fatal     error
	}
	results := make([]clientResult, len(r.w.requests))
	var wg sync.WaitGroup
	start := time.Now()
	for c, list := range r.w.requests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[c]
			var buf bytes.Buffer
			for i, qi := range list {
				if c == 0 {
					if res.fatal = mut.before(i, len(list)); res.fatal != nil {
						return
					}
				}
				t0 := time.Now()
				status, err := d.post(bodies[qi], &buf)
				latency := ms(time.Since(t0))
				switch {
				case err != nil:
					res.failures = append(res.failures, fmt.Errorf("client %d request %d: %w", c, i, err))
					latency = math.Inf(1)
				case status != http.StatusOK:
					res.failures = append(res.failures, fmt.Errorf("client %d request %d: status %d: %s", c, i, status, bytes.TrimSpace(buf.Bytes())))
					latency = math.Inf(1)
				}
				res.latencyMS = append(res.latencyMS, latency)
			}
		}()
	}
	wg.Wait()
	p := pass{wall: time.Since(start)}
	for _, res := range results {
		if res.fatal != nil {
			return p, res.fatal
		}
		p.latencyMS = append(p.latencyMS, res.latencyMS...)
		p.failures = append(p.failures, res.failures...)
	}
	return p, nil
}

// servedEndToEnd measures what a client of alae-serve and its operator
// wait for.
func (r *run) servedEndToEnd() error {
	w := r.w
	d, err := timeSetups(r, func() (*daemon, error) {
		// One lane per search: the host's core count must not leak
		// into a number.
		store, err := alae.NewStore(w.members(storeMembers), alae.StoreOptions{Shards: 1})
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(w, store)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if status, err := d.post(requestBody(w.queries[0]), &buf); err != nil || status != http.StatusOK {
			return nil, errors.Join(fmt.Errorf("first request: status %d: %v", status, err), d.stop())
		}
		return d, nil
	}, func(d *daemon) {
		if err := d.stop(); err != nil {
			r.rep.failf("stopping a set-up repetition's daemon: %v", err)
		}
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := d.stop(); err != nil {
			r.rep.failf("stopping the daemon: %v", err)
		}
	}()

	// One direct sweep of the untouched store gives the exact work
	// counts: during the passes they depend on which appended members
	// happen to be live when a query runs.
	var sweep counts
	for qi, q := range w.queries {
		res, err := d.store.Search(q, w.searchOptions())
		if err != nil {
			return fmt.Errorf("query %d: %w", qi, err)
		}
		sweep.add(counts{res.Stats.CalculatedEntries, int64(len(res.Hits)), res.Stats.EmittedHits})
	}

	bodies := requestBodies(w.queries)
	mut := &mutator{w: w, store: d.store}
	// The sweep and the warm-up leave some 460 answers in the result
	// cache, 95% of the heap, and their size is the seed's (126-141 MiB
	// over ten seeds). They are counted, then shed, so that live_heap_mb
	// is the store's and the daemon's own structures, the part a change
	// to the program moves. No timed request could have hit them: every
	// pass starts on queries the last mutation has not seen.
	passes, err := r.timedPasses(func() (pass, error) { return r.servedPass(d, mut, bodies) }, func() {
		results, pinned := d.store.QueryCachePressure()
		r.rep.Observed["cache_results_after_warmup"] = metric{float64(results), "count"}
		r.rep.Observed["cache_hits_pinned_after_warmup"] = metric{float64(pinned), "count"}
		d.store.ShedQueryCache(0)
	})
	if err != nil {
		return err
	}
	r.rep.Counts = sweep
	liveChars := 0
	for tab, i := d.store.Sequences(), 0; i < tab.Len(); i++ {
		liveChars += tab.SeqLen(i)
	}
	r.reportThroughput(passes, liveChars)

	var saved countingWriter
	if err := d.store.Save(&saved); err != nil {
		return err
	}
	r.rep.set("index_bytes_per_char", float64(saved)/float64(liveChars), "B")
	for name, values := range map[string][]float64{
		"append_loaded_p50_ms": mut.appendMS, "delete_loaded_p50_ms": mut.deleteMS, "compact_loaded_p50_ms": mut.compactMS,
	} {
		if len(values) > 0 {
			r.rep.Observed[name] = metric{median(values), "ms"}
		}
	}
	hits, misses := d.store.QueryCacheStats()
	r.rep.Observed["cache_hit_share"] = metric{float64(hits) / float64(max(hits+misses, 1)), "ratio"}
	r.checkPinned(nil)
	r.checkServedOracle(d, mut, bodies)
	return nil
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// checkServedOracle checks the store in the state the last pass left
// it: every distinct query answered over HTTP must equal the direct
// Store.Search answer, and for the first queries (as many as the
// oracle budget covers, at least two) the direct answer must equal a
// Gotoh sweep of each live member on its own.
func (r *run) checkServedOracle(d *daemon, mut *mutator, bodies [][]byte) {
	w := r.w
	live := append(w.members(storeMembers), mut.appended...)
	liveChars := 0
	for _, rec := range live {
		liveChars += len(rec.Seq)
	}
	var buf bytes.Buffer
	cells := 0
	for qi, q := range w.queries {
		direct, err := d.store.Search(q, w.searchOptions())
		if err != nil {
			r.rep.attempt(fmt.Errorf("oracle query %d: %w", qi, err))
			continue
		}
		r.rep.attempt(r.sameOverHTTP(d, bodies[qi], &buf, direct))
		if qi < 2 || cells+liveChars*len(q) <= oracleBudget {
			cells += liveChars * len(q)
			r.rep.attempt(sameAsGotoh(live, q, w.scheme, direct))
		}
	}
}

func (r *run) sameOverHTTP(d *daemon, body []byte, buf *bytes.Buffer, direct *alae.StoreResult) error {
	status, err := d.post(body, buf)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("oracle request: status %d: %v", status, err)
	}
	var resp serve.SearchResponse
	if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
		return fmt.Errorf("oracle request: %w", err)
	}
	if resp.Threshold != direct.Threshold || resp.TotalHits != len(direct.Hits) || len(resp.Hits) != len(direct.Hits) {
		return fmt.Errorf("HTTP answered %d hits at H=%d, Store.Search %d at H=%d", len(resp.Hits), resp.Threshold, len(direct.Hits), direct.Threshold)
	}
	for i, h := range direct.Hits {
		if got := resp.Hits[i]; got != (serve.SearchHit{Name: h.Name, Member: h.Member, TEnd: h.TEnd, LocalTEnd: h.LocalTEnd, QEnd: h.QEnd, Score: h.Score}) {
			return fmt.Errorf("HTTP hit %d is %+v, Store.Search has %+v", i, got, h)
		}
	}
	return nil
}

// sameAsGotoh requires res to be, member by member, the hits of the
// dense sweep over that member alone.
func sameAsGotoh(live []alae.SeqRecord, q []byte, s alae.Scheme, res *alae.StoreResult) error {
	byName := map[string][]align.Hit{}
	for _, h := range res.Hits {
		byName[h.Name] = append(byName[h.Name], align.Hit{TEnd: h.LocalTEnd, QEnd: h.QEnd, Score: h.Score})
	}
	for _, rec := range live {
		got := byName[rec.Name]
		align.SortHits(got)
		if want := align.LocalAll(rec.Seq, q, s, res.Threshold); !align.EqualHits(got, want) {
			return fmt.Errorf("member %s: Store.Search has %d hits, the Gotoh sweep %d, or they differ", rec.Name, len(got), len(want))
		}
		delete(byName, rec.Name)
	}
	if len(byName) > 0 {
		return fmt.Errorf("Store.Search reported hits in %d members that are not live", len(byName))
	}
	return nil
}
