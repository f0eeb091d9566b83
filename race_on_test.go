//go:build race

package alae

// raceEnabled: under the race detector sync.Pool drops a share of what
// is Put into it at random, so gates on steady-state allocation counts
// widen their budget by what a rebuilt pooled object costs; they still
// run.
const raceEnabled = true
