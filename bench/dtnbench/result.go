package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names a metric and its unit; BENCHMARK.json adds the
// direction and the regression bound (TestBenchmarkFileMatchesCode pins
// the two lists together).
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics a traced run reports on every workload; each
// is measured on that workload's own trace and engine configuration.
var perLayer = []metricDef{
	{"trace.decode_s", "s"},
	{"trace.decode_mb_per_s", "MB/s"},
	{"engine.new_s", "s"},
	{"knowledge.build_s", "s"},
	{"knowledge.builds", "count"},
	{"knowledge.build_ms_per_snapshot", "ms"},
	{"sim.replay_s", "s"},
	{"sim.events", "count"},
	{"scheme.replay_s", "s"},
	{"accounted_frac", "ratio"},
	{"parallel.efficiency", "ratio"},
	{"parallel.speedup_1_to_n", "ratio"},
	{"engine.events", "count"},
	{"contact.transfers_delivered", "count"},
	{"core.pushes", "count"},
	{"core.replacement_drops", "count"},
	{"buffer.evictions", "count"},
	{"query.issued", "count"},
	{"query.answered", "count"},
}

// run is one workload invocation: its inputs and everything it measured.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	dir      string // scratch and output directory of this run
	bin      string // directory holding the dtnserved binary
	tr       *tracer

	values    map[string]float64
	extras    []extra // diagnostics outside BENCHMARK.json's metric set
	attempted int
	failed    int
	failures  []string // correctness gates that did not hold
}

// extra is a diagnostic printed and kept in the result file but not part
// of BENCHMARK.json's metric set: it exists on one workload only.
type extra struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// note records a diagnostic; noting a name again replaces its value.
func (r *run) note(name string, v float64, unit string) {
	for i := range r.extras {
		if r.extras[i].Name == name {
			r.extras[i] = extra{name, v, unit}
			return
		}
	}
	r.extras = append(r.extras, extra{name, v, unit})
}

// check records a correctness gate; a failed gate makes the run
// incorrect and the command exit non-zero.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles BENCHMARK.json's metric set for the run's mode. A
// metric the workload did not measure is a bug in the benchmark.
func (r *run) result() (result, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	res := result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return res, fmt.Errorf("%s did not measure %s", r.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("%s measured %s = %v", r.workload, d.name, v)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("%s attempted nothing", r.workload)
	}
	return res, nil
}

// report prints every metric and diagnostic by name with its unit, then
// the result object as the last line, and stores both in
// result-<workload>.json.
func (r *run) report(w io.Writer) (result, error) {
	res, err := r.result()
	if err != nil {
		return res, err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, e := range r.extras {
		fmt.Fprintf(w, "  %-38s %14.6g %s\n", e.Name, e.Value, e.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}
	file := struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Traced   bool     `json:"traced"`
		Procs    int      `json:"gomaxprocs"`
		Result   result   `json:"result"`
		Extras   []extra  `json:"extras,omitempty"`
		Failures []string `json:"failures,omitempty"`
	}{r.workload, r.seed, r.traced, runtime.GOMAXPROCS(0), res, r.extras, r.failures}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return res, err
	}
	if err := os.WriteFile(filepath.Join(r.dir, "result-"+r.workload+".json"), append(b, '\n'), 0o644); err != nil {
		return res, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return res, err
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is this process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
