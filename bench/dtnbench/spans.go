package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Parent is the index of the enclosing
// span, -1 at the root.
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
}

// tracer keeps the spans of one traced run in memory; they are written
// once, when the run ends. It is confined to the goroutine that drives
// the workload, so nesting follows the call stack.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span named layer.call; the returned function closes it
// and reports its duration in seconds.
func (t *tracer) begin(name string) func() float64 {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{
		Workload: t.workload, Name: name,
		StartNs: time.Since(t.t0).Nanoseconds(), Parent: parent,
	})
	t.open = append(t.open, i)
	return func() float64 {
		t.spans[i].EndNs = time.Since(t.t0).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
		return float64(t.spans[i].EndNs-t.spans[i].StartNs) / 1e9
	}
}

// time runs fn inside a span and returns its duration in seconds.
func (t *tracer) time(name string, fn func() error) (float64, error) {
	end := t.begin(name)
	err := fn()
	return end(), err
}

// selfSeconds sums, per span name, the span durations minus the time
// their child spans cover. Children of one span never overlap (the
// tracer follows a single call stack), so their durations add up.
func (t *tracer) selfSeconds() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	self := make(map[string]float64)
	for i, s := range t.spans {
		self[s.Name] += float64(s.EndNs-s.StartNs-child[i]) / 1e9
	}
	return self
}

// write stores the spans and the per-name self times as
// spans-<workload>.json in dir.
func (t *tracer) write(dir string) (string, error) {
	self := t.selfSeconds()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type selfTime struct {
		Name  string  `json:"name"`
		SelfS float64 `json:"self_s"`
	}
	out := struct {
		Workload string     `json:"workload"`
		Spans    []span     `json:"spans"`
		Self     []selfTime `json:"self"`
	}{Workload: t.workload, Spans: t.spans}
	for _, n := range names {
		out.Self = append(out.Self, selfTime{n, self[n]})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+t.workload+".json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
