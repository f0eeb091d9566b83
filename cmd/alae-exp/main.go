// Command alae-exp regenerates the paper's evaluation artifacts: every
// table and figure of §7 plus the §6 analytic bounds, on synthetic
// workloads (see DESIGN.md for the substitutions and EXPERIMENTS.md
// for paper-vs-measured commentary).
//
// Usage:
//
//	alae-exp                 # run everything at the default scale
//	alae-exp -exp table2     # one experiment
//	alae-exp -scale 2 -queries 10
//	alae-exp -list
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
)

func main() {
	var (
		expID    = flag.String("exp", "", "experiment id (empty = all); see -list")
		scale    = flag.Float64("scale", 1, "workload scale factor (1 = laptop defaults)")
		seed     = flag.Int64("seed", 42, "RNG seed")
		queries  = flag.Int("queries", 3, "queries per workload point (paper used 100)")
		parallel = flag.Int("p", 0, "ALAE worker goroutines per search (0 = all cores, 1 = sequential)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.Experiments {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}
	cfg := exp.Config{Scale: *scale, Seed: *seed, NumQueries: *queries, Parallelism: *parallel}
	var err error
	if *expID == "" {
		err = exp.RunAll(os.Stdout, cfg)
	} else {
		err = exp.Run(*expID, os.Stdout, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "alae-exp:", err)
		os.Exit(1)
	}
}
