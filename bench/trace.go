package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one
// repetition share Rep; Parent is the ID of the span that caused this
// one (-1 for a repetition's root). Count is what crossed the boundary:
// addresses collected or pulled, probes, bytes, queries.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per boundary. Spans
// are begun from the harness goroutine and from the scan engine's puller
// (TGA source pulls), hence the lock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	rep   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name, label string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Rep: t.rep, Name: name, Label: label, Start: now, End: -1})
	return id
}

// end closes span id with the count that crossed its boundary.
func (t *tracer) end(id int, count int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Count = count
}

// durMS is a closed span's duration in milliseconds.
func (s span) durMS() float64 { return float64(s.End-s.Start) / 1e6 }

// selfNS returns every span's self time: its duration minus the part of
// that interval its child spans cover (the union, so overlapping children
// are not subtracted twice).
func selfNS(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
