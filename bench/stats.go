package main

import (
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// summary is the shape every repeated measurement is reported in: the
// median a reader compares, and enough of the distribution (all
// values, extremes, quartiles) to judge whether the median means
// anything.
type summary struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(values []float64) summary {
	s := slices.Clone(values)
	slices.Sort(s)
	return summary{
		Median: quantile(s, 0.5),
		Min:    s[0],
		Max:    s[len(s)-1],
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		Values: values,
	}
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise measure bounds are compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// quantile interpolates linearly between the order statistics of an
// ascending slice.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// spinSink keeps the spin loop's result live so the compiler cannot
// drop the loop.
var spinSink uint64

// spinMS times a fixed integer loop that touches no memory: the same
// instructions on every call, so a change in its duration is a change
// in the machine, not in the program. It runs four independent chains,
// enough to keep the core's integer units busy: a single dependent chain
// waits on its own latency and reads the same (within 3%) whether or not
// a neighbour on the sibling hyperthread is taking half the core, which
// is what slows this sandbox by 20-40% for minutes at a time, and what
// the four chains show (14 ms quiet, 18-25 ms then).
func spinMS() float64 {
	best := math.MaxFloat64
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		a, b, c, d := uint64(88172645463325252), uint64(2), uint64(3), uint64(4)
		for i := 0; i < 5_000_000; i++ {
			a ^= a << 13
			b ^= b << 13
			c ^= c << 13
			d ^= d << 13
			a ^= a >> 7
			b ^= b >> 7
			c ^= c >> 7
			d ^= d >> 7
			a ^= a << 17
			b ^= b << 17
			c ^= c << 17
			d ^= d << 17
		}
		spinSink += a + b + c + d
		best = min(best, ms(time.Since(start)))
	}
	return best
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// from /proc; 0 where /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
