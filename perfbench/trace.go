package main

import (
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a layer call the benchmark made, nested
// under the call that caused it. Times are nanoseconds since the
// tracer's start; Parent is the index of the parent span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
}

// tracer keeps spans in memory; the pass hands them to the parent
// process, which writes them out when the run ends. It is safe for
// concurrent use (the serve clients share one).
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// start opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) start(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a span named name under parent.
func (t *tracer) do(name string, parent int, fn func() error) error {
	id := t.start(name, parent)
	defer t.end(id)
	return fn()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, the summed self time in seconds: a
// span's duration minus the part of its interval that its children
// cover. Overlapping children (concurrent clients) are counted once, so
// a span's self time is never negative. Spans still open are skipped.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		self := (s.End - s.Start) - covered(s.Start, s.End, children[i])
		out[s.Name] += float64(self) / 1e9
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(lo, hi int64, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
