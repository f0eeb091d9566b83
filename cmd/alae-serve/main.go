// Command alae-serve is the serving daemon: it loads a store built by
// `alae -save-store` and serves local-alignment searches over
// HTTP/JSON until told to stop.
//
// Usage:
//
//	alae -text genome.fa -save-store db.alae
//	alae-serve -store db.alae -p 4 -addr :7734
//
//	curl -s localhost:7734/healthz
//	curl -s -d '{"query":"ACGT...","timeout_ms":2000}' localhost:7734/search
//	curl -s localhost:7734/stats
//
// Endpoints: POST /search (JSON in, JSON out), GET /healthz (200
// serving / 503 draining), GET /stats (counters, cache pressure, job
// states). Concurrency is bounded by -lanes with a -queue-depth wait
// queue behind it; overload answers 429 with a Retry-After hint, a
// search that outlives -search-timeout answers 504 with the work
// actually aborted mid-traversal. -per-client additionally caps each
// client's in-flight searches (keyed by X-API-Key, else remote addr)
// so one greedy client cannot starve the lanes, and -per-client-rate
// bounds each client's request rate with a token bucket over
// -per-client-window (429 + Retry-After sized to the next token).
// -p sets each search's fan-out: the number of workers its fork
// families are pulled by inside the one shared index (a pure
// parallelism knob — answers and work are identical at every value).
// -query-cache is the result cache's byte budget, enforced at every
// insert. Background jobs — periodic
// store reload from -store (-reload), generational store compaction
// (-compact), and a self-probe that searches the store's own data
// (-probe) — run with panic isolation and never take the daemon down;
// a failed reload keeps the previous store serving.
//
// -pprof serves net/http/pprof on a separate loopback-only listener
// (off by default), so live daemons can be profiled without exposing
// the profiler on the serving address.
//
// On SIGTERM or SIGINT the daemon drains: /healthz flips to 503, new
// searches are refused, in-flight searches finish (bounded by
// -drain-timeout), and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "alae-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		storePath = flag.String("store", "", "store file written by `alae -save-store` (required)")
		addr      = flag.String("addr", ":7734", "listen address")
		algorithm = flag.String("algorithm", "alae", "engine: alae, bwtsw, blast, sw")
		schemeStr = flag.String("scheme", "1,-3,-5,-2", "scoring scheme sa,sb,sg,ss")
		threshold = flag.Int("threshold", 0, "raw score threshold H (0 = derive from -evalue)")
		eValue    = flag.Float64("evalue", 10, "expectation value used when -threshold is 0")
		parallel  = flag.Int("p", 1, "ALAE worker goroutines per search (serving default 1: lanes are the concurrency)")
		cacheSize = flag.Int("query-cache", 0, "result-cache budget in bytes (0 = 64 MiB, -1 = disabled)")

		lanes      = flag.Int("lanes", 0, "max concurrent searches (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue-depth", 0, "requests waiting beyond the lanes before 429 (0 = 2x lanes)")
		searchTO   = flag.Duration("search-timeout", 30*time.Second, "per-search deadline (0 = none)")
		maxHits    = flag.Int("max-hits", 1000, "hits returned per response (-1 = unlimited)")
		maxQuery   = flag.Int("max-query", 1<<20, "max query length in bytes")
		drainTO    = flag.Duration("drain-timeout", time.Minute, "max wait for in-flight searches on shutdown")

		perClient       = flag.Int("per-client", 0, "max in-flight searches per client (X-API-Key or remote addr); overflow answers 429 (0 = off)")
		perClientRate   = flag.Int("per-client-rate", 0, "max requests per client per -per-client-window; overflow answers 429 + Retry-After (0 = off)")
		perClientWindow = flag.Duration("per-client-window", time.Second, "refill window for -per-client-rate")

		reloadEvery  = flag.Duration("reload", 0, "re-read -store on this period and swap it in (0 = off)")
		compactEvery = flag.Duration("compact", 0, "run store compaction on this period: merge generations, purge tombstones (0 = off)")
		probeEvery   = flag.Duration("probe", time.Minute, "self-probe period: search a member prefix, fail loudly if it misses (0 = off)")
		probeLen     = flag.Int("probe-len", 64, "self-probe query length")

		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060; empty = off)")
	)
	flag.Parse()
	if *storePath == "" {
		flag.Usage()
		return fmt.Errorf("-store is required")
	}

	scheme, err := parseScheme(*schemeStr)
	if err != nil {
		return err
	}
	alg, err := parseAlgorithm(*algorithm)
	if err != nil {
		return err
	}

	storeOpts := alae.StoreOptions{QueryCacheSize: *cacheSize}
	store, err := alae.LoadStoreFile(*storePath, storeOpts)
	if err != nil {
		return err
	}
	fmt.Printf("loaded store: %d member(s), %d characters\n", store.Sequences().Len(), store.Sequences().TotalLen())

	srv, err := serve.New(serve.Config{
		Store:     store,
		StorePath: *storePath,
		Options: alae.SearchOptions{
			Scheme:      scheme,
			Threshold:   *threshold,
			EValue:      *eValue,
			Algorithm:   alg,
			Parallelism: *parallel,
		},
		Lanes:           *lanes,
		QueueDepth:      *queueDepth,
		PerClientLanes:  *perClient,
		PerClientRate:   *perClientRate,
		PerClientWindow: *perClientWindow,
		SearchTimeout:   *searchTO,
		MaxQueryLen:     *maxQuery,
		MaxHits:         *maxHits,
	})
	if err != nil {
		return err
	}
	if *reloadEvery > 0 {
		srv.AddJob(&serve.ReloadJob{Server: srv, Path: *storePath, Opts: storeOpts, Every: *reloadEvery})
	}
	if *compactEvery > 0 {
		srv.AddJob(&serve.CompactJob{Server: srv, Every: *compactEvery})
	}
	if *probeEvery > 0 {
		srv.AddJob(&serve.ProbeJob{Server: srv, QueryLen: *probeLen, Timeout: *searchTO, Every: *probeEvery})
	}
	srv.StartJobs()

	if *pprofAddr != "" {
		// Profiling stays off the serving mux: a separate listener, and
		// loopback-only so -pprof can never expose the profiler to the
		// daemon's clients by accident.
		ln, err := listenLoopback(*pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof %s: %w", *pprofAddr, err)
		}
		go func() {
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			if err := http.Serve(ln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(os.Stderr, "alae-serve: pprof listener:", err)
			}
		}()
		defer ln.Close()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", ln.Addr())
	}

	hs := srv.HTTPServer(*addr)
	errCh := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	fmt.Printf("serving on %s (lanes %d, queue %d, search timeout %s)\n",
		*addr, *lanes, *queueDepth, *searchTO)

	// Wait for a shutdown signal or a listener failure, then drain:
	// stop admitting, let in-flight searches finish, exit 0.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-sigCtx.Done():
	}
	fmt.Println("draining: refusing new searches, finishing in-flight")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	// Close the listener (bounded by the same drain deadline) and wait
	// out the in-flight lanes; either failing still exits through the
	// error path rather than hanging.
	shutdownErr := hs.Shutdown(drainCtx)
	if err := srv.Drain(drainCtx); err != nil {
		return err
	}
	if shutdownErr != nil {
		return shutdownErr
	}
	fmt.Println("drained, exiting")
	return nil
}

// listenLoopback binds addr, refusing any host that does not resolve
// to a loopback interface. The profiler exposes heap contents and must
// never ride on a routable address.
func listenLoopback(addr string) (net.Listener, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	if host == "" || host == "localhost" {
		// net.Listen would bind every interface for an empty host.
	} else if ip := net.ParseIP(host); ip == nil || !ip.IsLoopback() {
		return nil, fmt.Errorf("not a loopback address (use 127.0.0.1:port or localhost:port)")
	}
	if host == "" {
		addr = net.JoinHostPort("127.0.0.1", addr[strings.LastIndex(addr, ":")+1:])
	}
	return net.Listen("tcp", addr)
}

func parseScheme(s string) (alae.Scheme, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return alae.Scheme{}, fmt.Errorf("scheme %q: want sa,sb,sg,ss", s)
	}
	var vals [4]int
	for i, p := range parts {
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &vals[i]); err != nil {
			return alae.Scheme{}, fmt.Errorf("scheme %q: %w", s, err)
		}
	}
	sch := alae.Scheme{Match: vals[0], Mismatch: vals[1], GapOpen: vals[2], GapExtend: vals[3]}
	return sch, sch.Validate()
}

func parseAlgorithm(s string) (alae.Algorithm, error) {
	switch strings.ToLower(s) {
	case "alae":
		return alae.ALAE, nil
	case "bwtsw", "bwt-sw":
		return alae.BWTSW, nil
	case "blast":
		return alae.BLAST, nil
	case "sw", "smith-waterman":
		return alae.SmithWaterman, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}
