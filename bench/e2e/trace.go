package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a contract,
// a request, a block) share Op; Parent is the span that caused this one
// (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer records spans in memory; nothing is written until the run ends.
// A nil *tracer is the tracing-off switch: begin and end do nothing, so the
// same walk runs traced and untraced and their difference is the tracing
// overhead.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), spans: make([]span, 0, 1<<17)}
}

// begin opens a span and returns its id.
func (t *tracer) begin(parent, op int, name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Workload: t.workload, Op: op, Name: name,
		StartNS: int64(time.Since(t.t0)),
	})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].EndNS = int64(time.Since(t.t0))
}

// selfTimes returns, per span (same order), its duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// and may stick out of the parent; covered time is the union of the child
// intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make(map[int][]int)
	for i, s := range spans {
		if _, ok := index[s.Parent]; ok && s.Parent != s.ID {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < reach {
				lo = reach
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.EndNS - s.StartNS - covered
	}
	return out
}

// layerTime is one span name's aggregate.
type layerTime struct {
	calls  int
	selfNS int64
}

// perCall is the mean self time of one call, 0 for a layer never entered.
func (l layerTime) perCall() float64 { return ratio(float64(l.selfNS), float64(l.calls)) }

// byName sums self time and calls per span name.
func (t *tracer) byName() map[string]layerTime {
	out := make(map[string]layerTime)
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		l := out[s.Name]
		l.calls++
		l.selfNS += self[i]
		out[s.Name] = l
	}
	return out
}

// write dumps the spans to <dir>/trace-<workload>.json.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", t.workload))
	return os.WriteFile(path, data, 0o644)
}
