// Command bench is this repository's benchmark: four named workloads,
// end-to-end metrics with regression bounds (BENCHMARK.json), per-layer
// metrics and a traced run, every answer checked against the Gotoh
// oracle. See README.md beside this file.
//
//	go run ./bench -seed 42                      the whole suite
//	go run ./bench -workload dna-long -trace 1   one run of one workload
//	go run ./bench compare old.json new.json     apply the bounds
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64 // how long the timed passes (or the layer timings) measure
	trace    int     // 0: end-to-end metrics; 1: per-layer metrics and spans
	out      string  // directory for the run reports and the trace

	// Only the smoke test sets these to anything else.
	scale   float64 // input size as a share of full size
	passes  int     // timed passes; 0 means as many as fit in seconds, at least minPasses
	warmups int
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	cfg := config{scale: 1, warmups: 2}
	flag.StringVar(&cfg.workload, "workload", "", "run one workload in this process (default: the suite, one child process per workload)")
	flag.Int64Var(&cfg.seed, "seed", 42, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "seconds of timed passes per run")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and spans")
	flag.StringVar(&cfg.out, "out", filepath.Join("bench", "out"), "directory for run reports and traces")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	var err error
	if cfg.workload == "" {
		err = runSuite(cfg)
	} else {
		var rep *report
		if rep, err = runWorkload(cfg, os.Stdout); err == nil && !rep.Correct {
			err = fmt.Errorf("%s: %d of %d checked operations failed", rep.Workload, rep.Failed, rep.Attempted)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runWorkload generates one workload, measures it in this process, and
// prints the report to out and stores it in cfg.out.
func runWorkload(cfg config, out io.Writer) (*report, error) {
	begin := time.Now()
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	r := &run{w: w, cfg: cfg, rep: newReport(w, cfg)}
	r.rep.SpinMS = append(r.rep.SpinMS, spinMS())
	switch {
	case cfg.trace != 0:
		err = r.tracedRun()
	case w.served:
		err = r.servedEndToEnd()
	default:
		err = r.libraryEndToEnd()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.rep.SpinMS = append(r.rep.SpinMS, spinMS())
	if spin := summarize(r.rep.SpinMS); spin.Q3 > 1.10*spin.Min {
		r.rep.Noisy = true
	}
	if cfg.trace != 0 {
		r.rep.set("env.spin_ms", slices.Min(r.rep.SpinMS), "ms")
		r.rep.set("env.peak_rss_mb", peakRSSMB(), "MiB")
	}
	r.rep.Correct = r.rep.Failed == 0
	r.rep.WallS = time.Since(begin).Seconds()
	if err := writeJSON(filepath.Join(cfg.out, reportFile(w.name, cfg.trace)), r.rep); err != nil {
		return nil, err
	}
	return r.rep, r.rep.print(out)
}
