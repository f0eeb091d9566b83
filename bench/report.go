package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

// metric is one reported number. The driver contract wants exactly
// value and unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// counts are the exact work totals of one pass over a workload's
// queries. They must repeat on every pass and every run of a seed; a
// change is an algorithmic change, never noise.
type counts struct {
	Entries int64 `json:"entries"`
	Hits    int64 `json:"hits"`
	Emitted int64 `json:"emitted"`
}

func (c *counts) add(s counts) {
	c.Entries += s.Entries
	c.Hits += s.Hits
	c.Emitted += s.Emitted
}

// report is everything one run of one workload produced. The last
// line of standard output carries only the contract's four keys; the
// rest is written to the out directory for the suite and for compare.
type report struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Scale       float64 `json:"scale"`
	Trace       int     `json:"trace"`
	GoVersion   string  `json:"go_version"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Fingerprint string  `json:"fingerprint"`
	Counts      counts  `json:"counts"`
	Passes      int     `json:"passes"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// Noisy marks a run whose machine, not whose code, moved: of the
	// spin loop's readings (before the run, after every timed pass, after
	// the run) the upper quartile is more than a tenth above the least, or
	// the passes of query_qps range over more than 30%.
	Noisy  bool      `json:"noisy"`
	SpinMS []float64 `json:"spin_ms"`

	Metrics map[string]metric `json:"metrics"`
	// Samples holds the distribution behind each timing metric: one
	// value per timed pass (or per set-up repetition).
	Samples map[string]summary `json:"samples,omitempty"`
	// Observed are numbers seen during the run that are not metrics of
	// BENCHMARK.json, such as mutation latencies under read load.
	Observed map[string]metric `json:"observed,omitempty"`
	Flags    []string          `json:"flags,omitempty"`
	WallS    float64           `json:"wall_s"`
}

func newReport(w *workload, cfg config) *report {
	return &report{
		Workload: w.name, Seed: cfg.seed, Scale: cfg.scale, Trace: cfg.trace,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Fingerprint: w.fingerprint(),
		Metrics:     map[string]metric{},
		Samples:     map[string]summary{},
		Observed:    map[string]metric{},
	}
}

func (r *report) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// setMedian reports the median of repeated measurements and keeps the
// values themselves.
func (r *report) setMedian(name string, values []float64, unit string) {
	s := summarize(values)
	r.Samples[name] = s
	r.set(name, s.Median, unit)
}

// setBest reports the least of repeated timings — a disturbance only
// ever adds to one — and keeps the values themselves.
func (r *report) setBest(name string, values []float64, unit string) {
	s := summarize(values)
	r.Samples[name] = s
	r.set(name, s.Min, unit)
}

// setHighest is setBest for a rate: the most of repeated measurements.
func (r *report) setHighest(name string, values []float64, unit string) {
	s := summarize(values)
	r.Samples[name] = s
	r.set(name, s.Max, unit)
}

// attempt counts one checked operation; a non-nil err counts it as
// failed and keeps the first few messages.
func (r *report) attempt(err error) {
	r.Attempted++
	if err != nil {
		r.failf("%v", err)
	}
}

// attemptPass counts every operation of a pass, the refused ones as
// failed.
func (r *report) attemptPass(p pass) {
	r.Attempted += len(p.latencyMS) - len(p.failures)
	for _, f := range p.failures {
		r.attempt(f)
	}
}

func (r *report) failf(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) flag(format string, args ...any) {
	r.Flags = append(r.Flags, fmt.Sprintf(format, args...))
}

// print writes every metric by name with its unit, then the contract
// line, which must stay last.
func (r *report) print(out io.Writer) error {
	fmt.Fprintf(out, "workload %s seed %d trace %d scale %g  (%s, nproc %d, GOMAXPROCS %d)\n",
		r.Workload, r.Seed, r.Trace, r.Scale, r.GoVersion, r.NumCPU, r.GOMAXPROCS)
	fmt.Fprintf(out, "  inputs fnv64 %s  passes %d  entries %d  hits %d  emitted %d  noisy %v\n",
		r.Fingerprint, r.Passes, r.Counts.Entries, r.Counts.Hits, r.Counts.Emitted, r.Noisy)
	fmt.Fprintf(out, "  spin loop before, after each timed pass, after: %.1f ms\n", r.SpinMS)
	printMetrics(out, r.Metrics, r.Samples)
	printMetrics(out, r.Observed, nil)
	for _, f := range r.Flags {
		fmt.Fprintf(out, "  flag: %s\n", f)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func printMetrics(out io.Writer, metrics map[string]metric, samples map[string]summary) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := metrics[name]
		fmt.Fprintf(out, "  %-34s %14.6g %-8s", name, m.Value, m.Unit)
		if s, ok := samples[name]; ok && len(s.Values) > 1 {
			fmt.Fprintf(out, " passes: n=%d min %.6g q1 %.6g med %.6g q3 %.6g max %.6g", len(s.Values), s.Min, s.Q1, s.Median, s.Q3, s.Max)
		}
		fmt.Fprintln(out)
	}
}

// reportFile names the report of one workload and mode in the out
// directory.
func reportFile(workload string, trace int) string {
	return fmt.Sprintf("run-%s-trace%d.json", workload, trace)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
