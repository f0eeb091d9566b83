package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
)

func loadSpec(t *testing.T) spec {
	t.Helper()
	var sp spec
	if err := readJSON("../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSmoke runs every workload in both modes at a twentieth of full
// size, one pass, and checks that the last output line is the contract
// line carrying exactly the metrics BENCHMARK.json names, with its
// units, all finite, every timing positive, and every answer equal to
// the oracle's.
func TestSmoke(t *testing.T) {
	sp := loadSpec(t)
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloadNames))
	}
	validName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	timeUnit := map[string]bool{"s": true, "ms": true, "us": true, "ns": true}
	for _, w := range sp.Workloads {
		for trace, want := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
			cfg := config{workload: w.Name, seed: 42, seconds: 0.2, trace: trace, out: t.TempDir(), scale: 0.05, passes: 1, warmups: 1}
			var out bytes.Buffer
			rep, err := runWorkload(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			t.Logf("%s trace %d took %.2f s", w.Name, trace, rep.WallS)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace %d: %d of %d operations failed: %v", w.Name, trace, rep.Failed, rep.Attempted, rep.Failures)
			}

			var last string
			for sc := bufio.NewScanner(&out); sc.Scan(); {
				last = sc.Text()
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(last), &line); err != nil {
				t.Fatalf("%s trace %d: last line is not JSON: %v\n%s", w.Name, trace, err, last)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("%s trace %d: last line must have exactly correct, attempted, failed, metrics: %s", w.Name, trace, last)
			}
			var metrics map[string]metric
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.Name]
				switch {
				case !validName.MatchString(m.Name):
					t.Errorf("metric name %q is not of the contract's form", m.Name)
				case !ok:
					t.Errorf("%s trace %d: %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %d: %s has unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace %d: %s = %v", w.Name, trace, m.Name, got.Value)
				case got.Value <= 0 && (trace == 0 || timeUnit[m.Unit] && m.Name != "serve.http_overhead_us"):
					// The overhead is a difference of two medians and may
					// dip below zero at this size.
					t.Errorf("%s trace %d: %s = %v, want a positive value", w.Name, trace, m.Name, got.Value)
				}
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := func(value float64) measured {
		return measured{value, summarize([]float64{value * 0.99, value, value * 1.01})}
	}
	wide := measured{100, summarize([]float64{70, 100, 130})}
	for _, tc := range []struct {
		name           string
		old, cur       measured
		higherIsBetter bool
		want           string
	}{
		{"latency within the bound", steady(100), steady(104), false, "same"},
		{"latency up beyond the bound", steady(100), steady(110), false, "worse"},
		{"latency down beyond the bound", steady(100), steady(90), false, "better"},
		{"throughput down beyond the bound", steady(100), steady(90), true, "worse"},
		{"throughput up beyond the bound", steady(100), steady(110), true, "better"},
		{"spread wider than the bound", wide, steady(104), false, "unresolved"},
		{"spread wider, yet every new pass beats every old one", wide, steady(50), false, "better"},
		{"spread wider, a regression is not proven either", steady(100), wide, true, "unresolved"},
		{"spread wider, yet every new pass is behind every old one", steady(100), measured{50, summarize([]float64{30, 50, 70})}, true, "worse"},
		{"spread wider, latency passes all behind the old ones", wide, steady(200), false, "worse"},
	} {
		if got, _ := verdict(tc.old, tc.cur, tc.higherIsBetter, 0.05); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	sp := loadSpec(t)
	mk := func(qps float64, failed int) *suite {
		s := &suite{Seed: 42}
		for _, w := range sp.Workloads {
			r := &report{Workload: w.Name, Attempted: 100, Failed: failed, Metrics: map[string]metric{}, Samples: map[string]summary{}}
			for _, m := range sp.EndToEnd {
				r.set(m.Name, 1, m.Unit)
			}
			r.set("query_qps", qps, "1/s")
			r.Samples["query_qps"] = summarize([]float64{qps, qps * 1.001, qps * 0.999})
			s.Runs = append(s.Runs, r)
		}
		return s
	}
	for _, tc := range []struct {
		name      string
		old, cur  *suite
		regressed bool
		mention   string
	}{
		{"same code", mk(100, 0), mk(101, 0), false, "same"},
		{"slower", mk(100, 0), mk(50, 0), true, "worse"},
		{"faster but failing", mk(100, 0), mk(200, 1), true, "failed share rose"},
	} {
		var out strings.Builder
		if got := compareSuites(sp, tc.old, tc.cur, &out); got != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", tc.name, got, tc.regressed, out.String())
		}
		if !strings.Contains(out.String(), tc.mention) {
			t.Errorf("%s: output does not mention %q:\n%s", tc.name, tc.mention, out.String())
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "query", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "core.search", StartNS: 5, EndNS: 85},
		{ID: 3, Parent: 2, Name: "core.resolve", StartNS: 5, EndNS: 15},
		{ID: 4, Parent: 1, Name: "align.collect", StartNS: 85, EndNS: 95},
		{ID: 5, Name: "query", StartNS: 100, EndNS: 150},
		{ID: 6, Parent: 5, Name: "core.search", StartNS: 100, EndNS: 150},
		// A paired replay longer than the span it re-enacts must not
		// drive that span's self time below zero.
		{ID: 7, Name: "request", StartNS: 200, EndNS: 210},
		{ID: 8, Parent: 7, Name: "serve.http", StartNS: 200, EndNS: 210},
		{ID: 9, Parent: 8, Name: "alae.store_search", StartNS: 210, EndNS: 230},
	}
	want := map[string]int64{
		"query": 10, "core.search": 70 + 50, "core.resolve": 10, "align.collect": 10,
		"request": 0, "serve.http": 0, "alae.store_search": 20,
	}
	got := selfTimes(spans)
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("self time of %s = %d ns, want %d", name, got[name], ns)
		}
	}
	if total := rootTime(spans, "query"); total != 150 {
		t.Errorf("root time of query = %d ns, want 150", total)
	}
}
