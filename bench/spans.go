package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval recorded by the traced run, around a call
// from this package into a layer of the simulator. Spans are kept in
// memory and written when the benchmark ends. SelfNs is the span's
// duration minus what its children cover.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	SelfNs   int64  `json:"self_ns"`
}

// spanLog is nil with tracing off; every method is a no-op on nil so
// the untraced path pays one branch and takes no timestamps.
type spanLog struct {
	mu       sync.Mutex
	workload string
	origin   time.Time
	spans    []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, origin: time.Now()}
}

// begin opens a span under parent (0 = root) and returns its id.
func (l *spanLog) begin(parent int, name string) int {
	if l == nil {
		return 0
	}
	return l.add(parent, name, time.Now(), time.Time{})
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.origin).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].EndNs = now
	l.mu.Unlock()
}

// add records a span whose times are already known (job spans rebuilt
// from observed status changes). A zero end leaves the span open.
func (l *spanLog) add(parent int, name string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := span{ID: len(l.spans) + 1, Parent: parent, Workload: l.workload, Name: name,
		StartNs: start.Sub(l.origin).Nanoseconds()}
	if !end.IsZero() {
		s.EndNs = end.Sub(l.origin).Nanoseconds()
	}
	l.spans = append(l.spans, s)
	return s.ID
}

// duration returns the length of the first closed span with that
// parent and name, or 0.
func (l *spanLog) duration(parent int, name string) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if s.Parent == parent && s.Name == name && s.EndNs > 0 {
			return s.EndNs - s.StartNs
		}
	}
	return 0
}

// finish computes self times and returns the spans. Children of one
// parent recorded here never overlap in a way that matters for the
// serial scenes; for concurrent job spans self time can go negative and
// is clamped to zero.
func (l *spanLog) finish() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range l.spans {
		child[s.Parent] += s.EndNs - s.StartNs
	}
	out := append([]span(nil), l.spans...)
	for i := range out {
		self := out[i].EndNs - out[i].StartNs - child[out[i].ID]
		if self < 0 {
			self = 0
		}
		out[i].SelfNs = self
	}
	return out
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
