package main

import "time"

// span is one timed call into a layer, recorded by the benchmark
// around the call (spans inside the program are a later change). The
// spans of one query or request share Request; Parent is the ID of the
// span that caused this one, 0 for a root. A paired replay — the
// direct Store.SearchContext call that re-enacts what a round trip did
// inside the daemon — is recorded as the child of the span it
// re-enacts, although it runs after it.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Request int              `json:"request"`
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

func (s span) duration() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the run ends. One goroutine uses
// it at a time.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(parent, request int, name string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name})
	t.spans[id-1].StartNS = time.Since(t.epoch).Nanoseconds()
	return id
}

// end closes a span and returns how long it was open.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.epoch).Nanoseconds()
	return time.Duration(s.duration())
}

// count attaches a work count to a span, at the boundary where the
// work happened.
func (t *tracer) count(id int, name string, n int64) {
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[name] += n
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the durations of its children, never below zero.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.duration()
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		self[s.Name] += max(s.duration()-children[s.ID], 0)
	}
	return self
}

// rootTime is the summed duration of the root spans called name.
func rootTime(spans []span, name string) int64 {
	var total int64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == name {
			total += s.duration()
		}
	}
	return total
}
