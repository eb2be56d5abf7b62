package bench

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Parent is the index of
// the span that caused it in the recording Tracer, or -1 for a root.
type Span struct {
	Name       string
	Parent     int
	Start, End time.Duration // offsets from the tracer's epoch
}

// Tracer records spans in memory; nothing is written until the run ends.
// It is safe for concurrent use. A nil *Tracer records nothing, so code
// shared by the end-to-end and traced runs can take one unconditionally.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer whose span offsets count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Start opens a span under parent (-1 for none) and returns its index;
// End closes it.
func (t *Tracer) Start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// End closes span i.
func (t *Tracer) End(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// SelfTimes returns, per span, its duration minus the part of its interval
// that its children cover. Children that overlap each other (parallel
// workers under one parent) are counted once, and a child's time outside
// its parent's interval is not subtracted.
func SelfTimes(spans []Span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		slices.SortFunc(iv, func(a, b [2]time.Duration) int { return cmp.Compare(a[0], b[0]) })
		var covered, curLo, curHi time.Duration
		open := false
		for _, v := range iv {
			switch {
			case !open:
				curLo, curHi, open = v[0], v[1], true
			case v[0] <= curHi:
				curHi = max(curHi, v[1])
			default:
				covered += curHi - curLo
				curLo, curHi = v[0], v[1]
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// Totals sums, by name, the durations, self times and counts of the spans
// recorded from index from on; self times still discount children recorded
// earlier or later.
func Totals(spans []Span, from int) (total, self map[string]time.Duration, count map[string]int) {
	selfs := SelfTimes(spans)
	total, self, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	for i, s := range spans[from:] {
		total[s.Name] += s.End - s.Start
		self[s.Name] += selfs[from+i]
		count[s.Name]++
	}
	return total, self, count
}
