// Package serve is the HTTP/JSON serving daemon over a sharded
// alae.Store: the layer that turns the library's exact-search core
// into a process that survives production traffic. Its job is
// graceful degradation — every failure mode an open port invites
// (deadline expiry mid-search, disconnecting clients, overload bursts,
// panicking requests, a corrupt store file appearing mid-reload) must
// degrade to an error response or a skipped background run, never to
// a crash or an unbounded queue.
//
// The degradation model, layer by layer:
//
//   - Admission control. Concurrent searches are bounded by a fixed
//     number of lanes (default GOMAXPROCS) — each admitted request
//     holds one lane token, which maps one-to-one onto one
//     Store.SearchContext call's pooled scatter. Behind the lanes sits
//     a bounded wait queue; a request that finds both full is rejected
//     immediately with 429 and a Retry-After hint, so overload sheds
//     load at the door instead of stacking goroutines until memory
//     runs out.
//
//   - Cancellation. Every search runs under the request's context
//     plus the configured per-search deadline, plumbed down into the
//     core traversal loops (core's entry-budget checkpoints), so a
//     slow query or a gone client stops burning CPU within a bounded
//     number of DP entries. Deadline expiry maps to 504, a client
//     disconnect to a logged abort.
//
//   - Isolation. Each request handler runs under its own recover():
//     a panic becomes a 500 and a counter increment; the daemon and
//     its other lanes keep serving.
//
//   - Lifecycle. SIGTERM (wired in cmd/alae-serve) starts a drain:
//     /healthz flips to 503 so load balancers stop routing here, new
//     searches are refused, in-flight searches finish, then the
//     process exits 0. Background jobs (store reload, compaction,
//     the bench self-probe) run on their own tickers with the
//     same panic isolation, and a failed job run — a corrupt store
//     file, most importantly — keeps the last good state.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	alae "repro"
)

// Config configures a Server. Store is required; everything else has
// serving defaults.
type Config struct {
	// Store is the initial store to serve. Required.
	Store *alae.Store
	// StorePath, when set, is the file the reload job re-reads the
	// store from (see Jobs); it is not read at construction.
	StorePath string
	// Options is the search configuration every request uses as its
	// base. Per-request JSON fields override Threshold and EValue only.
	Options alae.SearchOptions
	// Lanes bounds concurrent searches; 0 means GOMAXPROCS.
	Lanes int
	// QueueDepth bounds requests waiting for a lane beyond Lanes;
	// 0 means 2×Lanes, negative means no queue (reject when all lanes
	// are busy).
	QueueDepth int
	// PerClientLanes bounds the searches ONE client may have admitted
	// or queued at once, keyed by X-API-Key (when sent) or the remote
	// address; overflow is rejected immediately with 429 + Retry-After
	// before the global lanes are touched, so one greedy client cannot
	// monopolise the lane pool. 0 disables per-client fairness.
	PerClientLanes int
	// PerClientRate bounds one client's request RATE, keyed exactly
	// like PerClientLanes: each client owns a token bucket holding
	// PerClientRate tokens that refills continuously over
	// PerClientWindow, so up to PerClientRate requests are admitted in
	// any sliding window and a burst above it is rejected with 429 and
	// a Retry-After sized to the next token. 0 disables rate limiting.
	PerClientRate int
	// PerClientWindow is the refill window for PerClientRate; 0 means
	// one second.
	PerClientWindow time.Duration
	// SearchTimeout is the per-search deadline; 0 means none beyond
	// the client's own. Requests may ask for a SHORTER deadline via
	// the timeout_ms field, never a longer one.
	SearchTimeout time.Duration
	// MaxQueryLen rejects oversized queries before they reach a lane;
	// 0 means 1 MiB.
	MaxQueryLen int
	// MaxHits caps the hits returned in one response (the full count
	// is always reported); 0 means 1000, negative means unlimited.
	MaxHits int
	// Logf receives the daemon's log lines; nil means log.Printf.
	Logf func(format string, args ...any)
}

// serveHooks is the fault-injection surface: test-only observation
// points on the serving path. Production code never sets them.
type serveHooks struct {
	// preSearch runs on the request goroutine after admission, before
	// the search. Tests use it to panic (isolation), block (overload)
	// or coordinate cancellation.
	preSearch func(query []byte)
	// now replaces time.Now on the rate-limit path so tests can walk
	// the token buckets through a window deterministically.
	now func() time.Time
}

// Server is the serving daemon state. Create with New, mount Handler
// on an http.Server (or use HTTPServer), stop with Drain.
type Server struct {
	cfg   Config
	logf  func(format string, args ...any)
	store atomic.Pointer[alae.Store]

	lanes    chan struct{} // lane tokens; holding one = searching
	queueCap int64
	waiting  atomic.Int64 // requests blocked on a lane

	clientMu     sync.Mutex     // guards clientActive
	clientActive map[string]int // client key → searches admitted or queued

	rateMu      sync.Mutex             // guards rateBuckets
	rateBuckets map[string]*rateBucket // client key → token bucket

	draining atomic.Bool
	drainCh  chan struct{} // closed when the drain starts
	inflight sync.WaitGroup

	jobsMu   sync.Mutex
	jobs     []*jobState
	jobsCtx  context.Context
	jobsStop context.CancelFunc

	started time.Time

	// Counters for /stats; atomics so handlers never share locks.
	nAdmitted       atomic.Int64 // searches that got a lane
	nOK             atomic.Int64 // searches answered 200
	nRejected       atomic.Int64 // 429s (queue full)
	nClientRejected atomic.Int64 // 429s (one client over its cap)
	nRateLimited    atomic.Int64 // 429s (one client over its rate)
	nTimeouts       atomic.Int64 // 504s (deadline expired mid-search)
	nCancelled      atomic.Int64 // client gone mid-search
	nBadReq         atomic.Int64 // 400s
	nPanics         atomic.Int64 // recovered handler panics

	// Emission-path totals across answered searches: cells forwarded to
	// the collectors, and duplicates the dominance filter suppressed.
	nEmitted    atomic.Int64
	nSuppressed atomic.Int64

	hooks serveHooks
}

// New builds a Server around cfg.Store. Background jobs are not
// started here — call StartJobs (cmd/alae-serve does) so tests can
// drive jobs synchronously instead.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	if cfg.Lanes <= 0 {
		cfg.Lanes = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = 2 * cfg.Lanes
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	}
	if cfg.MaxQueryLen <= 0 {
		cfg.MaxQueryLen = 1 << 20
	}
	if cfg.PerClientWindow <= 0 {
		cfg.PerClientWindow = time.Second
	}
	switch {
	case cfg.MaxHits == 0:
		cfg.MaxHits = 1000
	case cfg.MaxHits < 0:
		cfg.MaxHits = int(^uint(0) >> 1)
	}
	s := &Server{
		cfg:          cfg,
		logf:         cfg.Logf,
		lanes:        make(chan struct{}, cfg.Lanes),
		queueCap:     int64(cfg.QueueDepth),
		clientActive: make(map[string]int),
		rateBuckets:  make(map[string]*rateBucket),
		drainCh:      make(chan struct{}),
		started:      time.Now(),
	}
	if s.logf == nil {
		s.logf = log.Printf
	}
	s.store.Store(cfg.Store)
	return s, nil
}

// Store returns the store currently being served (the reload job swaps
// it atomically).
func (s *Server) Store() *alae.Store { return s.store.Load() }

// Handler returns the daemon's HTTP mux: POST /search, GET /healthz,
// GET /stats.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// HTTPServer returns an http.Server serving Handler on addr with the
// timeouts a public port needs: a header-read deadline (slow-loris
// clients are cut off, not accumulated) and a write deadline sized to
// the search deadline.
func (s *Server) HTTPServer(addr string) *http.Server {
	write := 2 * time.Minute
	if s.cfg.SearchTimeout > 0 {
		write = s.cfg.SearchTimeout + 30*time.Second
	}
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      write,
		IdleTimeout:       2 * time.Minute,
	}
}

// Drain performs the graceful half of shutdown: stop admitting
// searches (healthz flips to 503, /search refuses), stop the job
// runners, then wait — bounded by ctx — for in-flight searches to
// finish. The HTTP listener itself is the caller's to close
// (http.Server.Shutdown); cmd/alae-serve runs both.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.Swap(true) {
		close(s.drainCh)
	}
	s.StopJobs()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain abandoned with searches in flight: %w", ctx.Err())
	}
}

// Draining reports whether the drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// clientKey identifies one client for the per-client concurrency cap:
// the X-API-Key header when the client sends one (keys survive NAT and
// load-balancer hops; the header is however the client's own claim),
// the remote host otherwise. The two namespaces are prefixed so a key
// can never collide with an address.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return "key:" + k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "addr:" + host
}

// acquireClient charges one in-flight search to the client's cap,
// returning false when the client is already at it. The charge covers
// queue time too — a client flooding the WAIT QUEUE is exactly the
// monopolisation the cap exists to stop.
func (s *Server) acquireClient(key string) (release func(), ok bool) {
	if s.cfg.PerClientLanes <= 0 {
		return func() {}, true
	}
	s.clientMu.Lock()
	defer s.clientMu.Unlock()
	if s.clientActive[key] >= s.cfg.PerClientLanes {
		return nil, false
	}
	s.clientActive[key]++
	var once sync.Once
	return func() {
		once.Do(func() {
			s.clientMu.Lock()
			defer s.clientMu.Unlock()
			if s.clientActive[key] <= 1 {
				delete(s.clientActive, key) // keep the map from growing one entry per client ever seen
			} else {
				s.clientActive[key]--
			}
		})
	}, true
}

// rateBucket is one client's token bucket: tokens refill continuously
// at PerClientRate per PerClientWindow up to a capacity of
// PerClientRate, so the bucket admits at most PerClientRate requests
// in any sliding window while letting an idle client burst back up to
// the full allowance.
type rateBucket struct {
	tokens float64
	last   time.Time
}

// rateSweepSize bounds the bucket map: past this many clients, fully
// refilled (idle) buckets are dropped before a new one is inserted. A
// dropped bucket is indistinguishable from a fresh one, so eviction
// never grants or steals tokens.
const rateSweepSize = 4096

func (s *Server) rateNow() time.Time {
	if s.hooks.now != nil {
		return s.hooks.now()
	}
	return time.Now()
}

// allowClient charges one request to the client's rate bucket. When
// the bucket is empty it reports the wait until the next token — the
// Retry-After hint — and the request is rejected without touching the
// concurrency accounting or the lanes.
func (s *Server) allowClient(key string) (wait time.Duration, ok bool) {
	if s.cfg.PerClientRate <= 0 {
		return 0, true
	}
	burst := float64(s.cfg.PerClientRate)
	perToken := s.cfg.PerClientWindow / time.Duration(s.cfg.PerClientRate)
	now := s.rateNow()
	s.rateMu.Lock()
	defer s.rateMu.Unlock()
	b := s.rateBuckets[key]
	if b == nil {
		if len(s.rateBuckets) >= rateSweepSize {
			for k, old := range s.rateBuckets {
				if now.Sub(old.last) >= s.cfg.PerClientWindow {
					delete(s.rateBuckets, k)
				}
			}
		}
		b = &rateBucket{tokens: burst, last: now}
		s.rateBuckets[key] = b
	} else {
		b.tokens = min(burst, b.tokens+float64(now.Sub(b.last))/float64(perToken))
		b.last = now
	}
	if b.tokens < 1 {
		return time.Duration((1 - b.tokens) * float64(perToken)), false
	}
	b.tokens--
	return 0, true
}

// acquireLane admits one request: the fast path takes a free lane
// token; otherwise the request joins the bounded wait queue until a
// lane frees, the client gives up, or the drain starts. A full queue
// rejects immediately — that is the overload contract.
func (s *Server) acquireLane(ctx context.Context) (release func(), errStatus int, errMsg string) {
	select {
	case s.lanes <- struct{}{}:
	default:
		// All lanes busy: queue, bounded.
		if s.waiting.Add(1) > s.queueCap {
			s.waiting.Add(-1)
			return nil, http.StatusTooManyRequests, "all lanes busy and the wait queue is full"
		}
		defer s.waiting.Add(-1)
		select {
		case s.lanes <- struct{}{}:
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return nil, http.StatusGatewayTimeout, "deadline expired while waiting for a lane"
			}
			return nil, 499, "client went away while waiting for a lane"
		case <-s.drainCh:
			return nil, http.StatusServiceUnavailable, "server is draining"
		}
	}
	// The lane is held; in-flight from here until release.
	s.inflight.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			<-s.lanes
			s.inflight.Done()
		})
	}, 0, ""
}

// SearchRequest is the POST /search body. Query is required;
// Threshold/EValue override the server's base options for this request
// (same semantics as alae.SearchOptions: Threshold 0 derives from the
// E-value); TimeoutMS may shorten — never lengthen — the server's
// search deadline.
type SearchRequest struct {
	Query     string  `json:"query"`
	Threshold int     `json:"threshold,omitempty"`
	EValue    float64 `json:"evalue,omitempty"`
	TimeoutMS int     `json:"timeout_ms,omitempty"`
	MaxHits   int     `json:"max_hits,omitempty"`
}

// SearchHit is one hit of a /search response, in member coordinates.
type SearchHit struct {
	Name      string `json:"name"`
	Member    int    `json:"member"`
	TEnd      int    `json:"t_end"`
	LocalTEnd int    `json:"local_t_end"`
	QEnd      int    `json:"q_end"`
	Score     int    `json:"score"`
}

// SearchResponse is the POST /search response body.
type SearchResponse struct {
	Threshold int         `json:"threshold"`
	Algorithm string      `json:"algorithm"`
	TotalHits int         `json:"total_hits"`
	Truncated bool        `json:"truncated,omitempty"`
	Hits      []SearchHit `json:"hits"`
	ElapsedMS float64     `json:"elapsed_ms"`
	Cached    bool        `json:"cached,omitempty"`
}

// errorBody is every non-200 response: a JSON object, so clients parse
// one shape for both outcomes.
func (s *Server) errorBody(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		if w.Header().Get("Retry-After") == "" { // a caller may have set a sharper hint
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// retryAfterSeconds sizes the Retry-After hint from the configured
// search deadline: by then at least one lane's current occupant is
// gone. Without a deadline, a small constant.
func (s *Server) retryAfterSeconds() int {
	if s.cfg.SearchTimeout > 0 {
		secs := int((s.cfg.SearchTimeout + time.Second - 1) / time.Second)
		return max(secs, 1)
	}
	return 5
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	// Panic isolation: one bad request must not take the daemon down.
	// net/http would also recover, but silently killing the connection;
	// here the client gets a 500 and /stats counts it.
	defer func() {
		if p := recover(); p != nil {
			s.nPanics.Add(1)
			s.logf("serve: panic in /search: %v\n%s", p, debug.Stack())
			s.errorBody(w, http.StatusInternalServerError, "internal error")
		}
	}()
	if r.Method != http.MethodPost {
		s.nBadReq.Add(1)
		s.errorBody(w, http.StatusMethodNotAllowed, "POST a JSON body to /search")
		return
	}
	if s.draining.Load() {
		s.errorBody(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req SearchRequest
	body := io.LimitReader(r.Body, int64(s.cfg.MaxQueryLen)+4096)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.nBadReq.Add(1)
		s.errorBody(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Query == "" {
		s.nBadReq.Add(1)
		s.errorBody(w, http.StatusBadRequest, "query is required")
		return
	}
	if len(req.Query) > s.cfg.MaxQueryLen {
		s.nBadReq.Add(1)
		s.errorBody(w, http.StatusBadRequest,
			fmt.Sprintf("query length %d exceeds the limit %d", len(req.Query), s.cfg.MaxQueryLen))
		return
	}

	// Per-client fairness first: the rate bucket, then the concurrency
	// cap — a client over either is rejected without touching (or
	// queueing for) the shared lanes.
	key := clientKey(r)
	if wait, ok := s.allowClient(key); !ok {
		s.nRateLimited.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(max(1, int((wait+time.Second-1)/time.Second))))
		s.errorBody(w, http.StatusTooManyRequests,
			fmt.Sprintf("client rate limit (%d per %s) reached", s.cfg.PerClientRate, s.cfg.PerClientWindow))
		return
	}
	releaseClient, ok := s.acquireClient(key)
	if !ok {
		s.nClientRejected.Add(1)
		s.errorBody(w, http.StatusTooManyRequests,
			fmt.Sprintf("client concurrency limit (%d in flight) reached", s.cfg.PerClientLanes))
		return
	}
	defer releaseClient()

	release, errStatus, errMsg := s.acquireLane(r.Context())
	if release == nil {
		if errStatus == http.StatusTooManyRequests {
			s.nRejected.Add(1)
		} else if errStatus == http.StatusGatewayTimeout {
			s.nTimeouts.Add(1)
		}
		s.errorBody(w, errStatus, errMsg)
		return
	}
	defer release()
	s.nAdmitted.Add(1)

	query := []byte(req.Query)
	if s.hooks.preSearch != nil {
		s.hooks.preSearch(query)
	}

	// The search context: the client's own (disconnect aborts the
	// scatter) bounded by the server deadline, optionally shortened by
	// the request.
	ctx := r.Context()
	timeout := s.cfg.SearchTimeout
	if req.TimeoutMS > 0 {
		if t := time.Duration(req.TimeoutMS) * time.Millisecond; timeout == 0 || t < timeout {
			timeout = t
		}
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	opts := s.cfg.Options
	if req.Threshold > 0 {
		opts.Threshold, opts.EValue = req.Threshold, 0
	} else if req.EValue > 0 {
		opts.Threshold, opts.EValue = 0, req.EValue
	}

	begin := time.Now()
	res, err := s.Store().SearchContext(ctx, query, opts)
	elapsed := time.Since(begin)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.nTimeouts.Add(1)
			s.errorBody(w, http.StatusGatewayTimeout,
				fmt.Sprintf("search exceeded its deadline after %s", elapsed.Round(time.Millisecond)))
		case errors.Is(err, context.Canceled):
			// The client is gone; the write below goes nowhere, but the
			// abort itself is the point — the lane freed early.
			s.nCancelled.Add(1)
			s.errorBody(w, 499, "client closed the request")
		default:
			// Every other error the store returns is a rejected input:
			// separator bytes, a query shorter than q, or options the
			// options gate refuses.
			s.nBadReq.Add(1)
			s.errorBody(w, http.StatusBadRequest, err.Error())
		}
		return
	}

	maxHits := s.cfg.MaxHits
	if req.MaxHits > 0 && req.MaxHits < maxHits {
		maxHits = req.MaxHits
	}
	hits := res.Hits
	truncated := false
	if len(hits) > maxHits {
		hits, truncated = alae.TopKSeq(hits, maxHits), true
	}
	s.nOK.Add(1)
	s.nEmitted.Add(res.Stats.EmittedHits)
	s.nSuppressed.Add(res.Stats.SuppressedEmissions)
	buf := bodyPool.Get().(*[]byte)
	*buf = appendSearchBody((*buf)[:0], res, hits, truncated, float64(elapsed.Microseconds())/1000)
	w.Header().Set("Content-Type", "application/json")
	w.Write(*buf) // a failed write is a gone client; there is no one to tell
	bodyPool.Put(buf)
}

// handleHealthz is the load-balancer probe: 200 while serving, 503
// once the drain starts (so traffic routes away before the listener
// closes).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.errorBody(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// StatsResponse is the GET /stats body.
type StatsResponse struct {
	UptimeSec float64 `json:"uptime_sec"`
	Draining  bool    `json:"draining"`

	Lanes   int   `json:"lanes"`
	Busy    int   `json:"busy"`
	Waiting int64 `json:"waiting"`

	Admitted       int64 `json:"admitted"`
	OK             int64 `json:"ok"`
	Rejected       int64 `json:"rejected"`
	ClientRejected int64 `json:"client_rejected"`
	RateLimited    int64 `json:"rate_limited"`
	Timeouts       int64 `json:"timeouts"`
	Cancelled      int64 `json:"cancelled"`
	BadReq         int64 `json:"bad_requests"`
	Panics         int64 `json:"panics"`

	EmittedHits         int64 `json:"emitted_hits"`
	SuppressedEmissions int64 `json:"suppressed_emissions"`

	StoreMembers     int    `json:"store_members"`
	StoreBytes       int    `json:"store_bytes"`
	StoreGenerations int    `json:"store_generations"`
	StoreTombstones  int    `json:"store_tombstones"`
	StoreStamp       uint64 `json:"store_stamp"`
	CacheHits        int64  `json:"cache_hits"`
	CacheMisses      int64  `json:"cache_misses"`
	CacheResults     int    `json:"cache_results"`
	CacheTotalHits   int64  `json:"cache_total_hits"`

	Jobs []JobStatus `json:"jobs,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.Store()
	ch, cm := st.QueryCacheStats()
	cr, cth := st.QueryCachePressure()
	resp := StatsResponse{
		UptimeSec: time.Since(s.started).Seconds(),
		Draining:  s.draining.Load(),
		Lanes:     cap(s.lanes),
		Busy:      len(s.lanes),
		Waiting:   s.waiting.Load(),

		Admitted:       s.nAdmitted.Load(),
		OK:             s.nOK.Load(),
		Rejected:       s.nRejected.Load(),
		ClientRejected: s.nClientRejected.Load(),
		RateLimited:    s.nRateLimited.Load(),
		Timeouts:       s.nTimeouts.Load(),
		Cancelled:      s.nCancelled.Load(),
		BadReq:         s.nBadReq.Load(),
		Panics:         s.nPanics.Load(),

		EmittedHits:         s.nEmitted.Load(),
		SuppressedEmissions: s.nSuppressed.Load(),

		StoreMembers:     st.Sequences().Len(),
		StoreBytes:       st.Sequences().TotalLen(),
		StoreGenerations: st.Generations(),
		StoreTombstones:  st.Tombstones(),
		StoreStamp:       st.Stamp(),
		CacheHits:        ch,
		CacheMisses:      cm,
		CacheResults:     cr,
		CacheTotalHits:   cth,

		Jobs: s.JobStatuses(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&resp)
}
