package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.-][A-Za-z0-9_./-]{0,199}$`)
)

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the code: the
// workloads and metrics it lists are exactly the ones the benchmark
// runs and emits (run.result refuses to print a result missing any of
// them), with the same units, and the file keeps to its format limits.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []fileMetric `json:"end_to_end"`
		PerLayer []fileMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 || len(bf.Command) == 0 || len(bf.Command) > 32 ||
		len(bf.Paths) == 0 || len(bf.Paths) > 16 || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("size limits: %d bytes, command %v, paths %v, run_seconds %d", len(raw), bf.Command, bf.Paths, bf.RunSeconds)
	}
	for _, p := range bf.Paths {
		if !pathRE.MatchString(p) || regexp.MustCompile(`(^|/)\.\.(/|$)`).MatchString(p) {
			t.Errorf("path %q", p)
		}
	}

	var workloadsInFile []string
	for _, w := range bf.Workloads {
		workloadsInFile = append(workloadsInFile, w.Name)
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if !slices.Equal(workloadsInFile, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", workloadsInFile, workloadNames())
	}

	check := func(section string, file []fileMetric, code []metricDef, limit int, bounded bool) {
		if len(file) == 0 || len(file) > limit {
			t.Errorf("%s: %d metrics, want 1 to %d", section, len(file), limit)
		}
		if len(file) != len(code) {
			t.Errorf("%s: file lists %d metrics, code emits %d", section, len(file), len(code))
		}
		for i := range min(len(file), len(code)) {
			f, c := file[i], code[i]
			if f.Name != c.name || f.Unit != c.unit {
				t.Errorf("%s[%d]: file %s (%s), code %s (%s)", section, i, f.Name, f.Unit, c.name, c.unit)
			}
			if !nameRE.MatchString(f.Name) || !unitRE.MatchString(f.Unit) {
				t.Errorf("%s: malformed name %q or unit %q", section, f.Name, f.Unit)
			}
			if f.Better != "higher" && f.Better != "lower" {
				t.Errorf("%s: %s better = %q", section, f.Name, f.Better)
			}
			if bounded != (f.Bound != nil) || (bounded && (*f.Bound <= 0 || *f.Bound > 0.25)) {
				t.Errorf("%s: %s bound %v", section, f.Name, f.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, 16, true)
	check("per_layer", bf.PerLayer, perLayer, 128, false)

	seen := map[string]bool{}
	for _, n := range append(workloadsInFile, metricNames(append(bf.EndToEnd, bf.PerLayer...))...) {
		if seen[n] || !nameRE.MatchString(n) {
			t.Errorf("name %q repeated or malformed", n)
		}
		seen[n] = true
	}
	var setup *fileMetric
	for i, m := range bf.EndToEnd {
		if m.Name == "setup_s" {
			setup = &bf.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
	for _, m := range bf.EndToEnd {
		if *m.Bound > *setup.Bound {
			t.Errorf("%s bound %v exceeds setup_s's %v, which must be the largest", m.Name, *m.Bound, *setup.Bound)
		}
	}
	for _, c := range counts {
		if !seen[c.metric] {
			t.Errorf("count %s is read but not a per-layer metric", c.metric)
		}
	}
}

func metricNames(ms []fileMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

// A result missing any metric of its mode is never printed.
func TestResultRequiresEveryMetric(t *testing.T) {
	r := &run{workload: "w", values: map[string]float64{}, attempted: 1}
	for _, m := range endToEnd[1:] {
		r.set(m.name, 1)
	}
	if _, err := r.result(); err == nil {
		t.Fatalf("result without %s accepted", endToEnd[0].name)
	}
	r.set(endToEnd[0].name, 1)
	res, err := r.result()
	if err != nil || !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v, %v", res, err)
	}
	r.traced = true
	if _, err := r.result(); err == nil {
		t.Fatal("traced result without per-layer metrics accepted")
	}
}

// One failed serve op, such as a shed request, makes the run incorrect.
func TestFailedServeOpFailsRun(t *testing.T) {
	var closed []sample
	for i := range serveBatch {
		closed = append(closed, sample{end: time.Duration(i+1) * time.Millisecond})
	}
	for _, tc := range []struct {
		name    string
		err     error
		correct bool
		failed  int
	}{
		{"all answered", nil, true, 0},
		{"one shed", &statusError{"POST /v1/query", 429, "overloaded"}, false, 1},
	} {
		r := &run{workload: "serve-mixed", seconds: time.Second, values: map[string]float64{}}
		open := []sample{{end: time.Millisecond, err: tc.err}}
		r.summarizeServe(&serveRun{open: open, closed: closed}, 0, 0.1)
		r.set("peak_rss_mb", 1)
		r.set("setup_s", 1)
		res, err := r.result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct != tc.correct || res.Failed != tc.failed || res.Attempted != serveBatch+1 {
			t.Errorf("%s: result %+v, want correct %v and %d failed", tc.name, res, tc.correct, tc.failed)
		}
	}
}
