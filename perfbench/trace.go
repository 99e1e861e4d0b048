package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// closed-loop iteration share Op; Parent is the id of the enclosing span
// (0 for a root).
type span struct {
	Name   string  `json:"name"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. It is used from the
// benchmark's driving goroutine only. While on is false, begin and end
// record nothing, so untraced runs pay one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (0 while recording is off).
func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Op: op,
		Start: time.Since(t.t0).Seconds()})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Seconds()
}

// selfTimes returns, per span name, the self time of every span with that
// name: its duration minus the part of its interval that its children
// cover (overlapping children are counted once).
func selfTimes(spans []span) map[string][]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] = append(out[s.Name], s.End-s.Start-covered)
	}
	return out
}

// write saves the spans and the per-name median self time as JSON.
func (t *tracer) write(path string, meta map[string]any) error {
	self := map[string]float64{}
	for name, xs := range selfTimes(t.spans) {
		self[name] = median(xs)
	}
	b, err := json.MarshalIndent(map[string]any{
		"meta":          meta,
		"median_self_s": self,
		"spans":         t.spans,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
