package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// spec is the part of BENCHMARK.json, the contract the benchmark is run
// and judged by, that compare and the smoke test read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// suite is the document the suite run writes and compare reads: every
// run of every workload at one seed.
type suite struct {
	Seed int64     `json:"seed"`
	Runs []*report `json:"runs"`
}

func (s *suite) run(workload string, trace int) *report {
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == trace {
			return r
		}
	}
	return nil
}

// runSuite re-executes this binary once per workload and mode, so that
// heap, GC state and the gram cache never leak from one workload into
// the next, and gathers the children's reports.
func runSuite(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	s := suite{Seed: cfg.seed}
	var failed []string
	for _, name := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self,
				"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
				"-trace", fmt.Sprint(trace), "-out", cfg.out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s trace %d: %v", name, trace, err))
				continue
			}
			rep := new(report)
			if err := readJSON(filepath.Join(cfg.out, reportFile(name, trace)), rep); err != nil {
				return err
			}
			s.Runs = append(s.Runs, rep)
		}
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("suite-seed%d.json", cfg.seed))
	if err := writeJSON(path, s); err != nil {
		return err
	}
	fmt.Printf("suite written to %s\n", path)
	if len(failed) > 0 {
		return fmt.Errorf("%d runs failed: %v", len(failed), failed)
	}
	return nil
}

// measured is one end-to-end metric of one run: the reported value and
// the per-pass (or per-repetition) statistics behind it.
type measured struct {
	value  float64
	passes summary
}

// verdict judges one end-to-end metric of one workload between two
// runs. worsening is the change of the reported value as a share of the
// old one, positive when the metric got worse. A change beyond the
// bound is "worse" or "better". When the passes of either run spread
// wider than the bound, the reported values prove nothing and the row is
// "unresolved" (not "same") — unless the passes themselves do not
// overlap: every new pass behind every old one is still "worse", every
// new pass ahead of every old one still "better".
func verdict(old, cur measured, higherIsBetter bool, bound float64) (v string, worsening float64) {
	worsening = (cur.value - old.value) / old.value
	allWorse, allBetter := cur.passes.Min > old.passes.Max, cur.passes.Max < old.passes.Min
	if higherIsBetter {
		worsening = -worsening
		allWorse, allBetter = allBetter, allWorse
	}
	switch {
	case max(old.passes.spread(), cur.passes.spread()) > bound:
		switch {
		case allWorse:
			return "worse", worsening
		case allBetter:
			return "better", worsening
		}
		return "unresolved", worsening
	case worsening > bound:
		return "worse", worsening
	case worsening < -bound:
		return "better", worsening
	}
	return "same", worsening
}

// measuredIn finds a metric in a report; a metric measured once is its
// own only sample.
func measuredIn(r *report, name string) (measured, bool) {
	m, ok := r.Metrics[name]
	if !ok {
		return measured{}, false
	}
	passes, ok := r.Samples[name]
	if !ok {
		passes = summarize([]float64{m.Value})
	}
	return measured{m.Value, passes}, true
}

// compareMain applies the bounds of BENCHMARK.json to two suite files,
// row by row, and returns the exit code: non-zero on a regression, on
// more failed operations, or when a file cannot be read.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark contract holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(out, "usage: bench compare [-spec BENCHMARK.json] old.json new.json")
		return 2
	}
	var sp spec
	var old, cur suite
	for path, v := range map[string]any{*specPath: &sp, fs.Arg(0): &old, fs.Arg(1): &cur} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(out, "bench compare:", err)
			return 2
		}
	}
	if compareSuites(sp, &old, &cur, out) {
		return 1
	}
	return 0
}

func compareSuites(sp spec, old, cur *suite, out io.Writer) (regressed bool) {
	fmt.Fprintf(out, "%-12s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "worsened", "bound", "verdict")
	for _, w := range sp.Workloads {
		a, b := old.run(w.Name, 0), cur.run(w.Name, 0)
		if a == nil || b == nil {
			fmt.Fprintf(out, "%-12s missing from one of the files\n", w.Name)
			regressed = true
			continue
		}
		for _, m := range sp.EndToEnd {
			sa, okA := measuredIn(a, m.Name)
			sb, okB := measuredIn(b, m.Name)
			if !okA || !okB {
				fmt.Fprintf(out, "%-12s %-22s missing from one of the files\n", w.Name, m.Name)
				regressed = true
				continue
			}
			v, worsening := verdict(sa, sb, m.Better == "higher", m.Bound)
			fmt.Fprintf(out, "%-12s %-22s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n", w.Name, m.Name, sa.value, sb.value, 100*worsening, 100*m.Bound, v)
			regressed = regressed || v == "worse"
		}
		if a.Counts != b.Counts || a.Fingerprint != b.Fingerprint {
			fmt.Fprintf(out, "%-12s exact counts changed: %+v (inputs %s) -> %+v (inputs %s): an algorithmic or generator change, not noise\n",
				w.Name, a.Counts, a.Fingerprint, b.Counts, b.Fingerprint)
		}
		if fa, fb := failedShare(a), failedShare(b); fb > fa {
			fmt.Fprintf(out, "%-12s failed share rose from %g to %g\n", w.Name, fa, fb)
			regressed = true
		}
		for _, r := range []*report{a, b} {
			if r.Noisy {
				fmt.Fprintf(out, "%-12s a run was marked noisy (spin %v ms): suspect the machine before the change\n", w.Name, r.SpinMS)
			}
		}
	}
	return regressed
}

func failedShare(r *report) float64 { return float64(r.Failed) / float64(max(r.Attempted, 1)) }
