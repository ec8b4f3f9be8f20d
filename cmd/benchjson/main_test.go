package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: dtncache/internal/knowledge
cpu: Intel(R) Xeon(R)
BenchmarkAllPathsFull             	       2	1925639784 ns/op	89972512 B/op	 1161390 allocs/op
BenchmarkAllPathsCity-4           	       2	 784084922 ns/op	         0.6250 reachable-frac	37483776 B/op	  435633 allocs/op
PASS
ok  	dtncache/internal/knowledge	13.702s
`

func TestParse(t *testing.T) {
	sum, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(sum.Benchmarks))
	}
	full, city := sum.Benchmarks[0], sum.Benchmarks[1]
	if full.Name != "AllPathsFull" || full.Iterations != 2 || full.NsPerOp != 1925639784 {
		t.Errorf("full parsed as %+v", full)
	}
	if full.AllocsPerOp == nil || *full.AllocsPerOp != 1161390 {
		t.Errorf("full allocs/op = %v", full.AllocsPerOp)
	}
	if city.Name != "AllPathsCity" { // -4 GOMAXPROCS suffix stripped
		t.Errorf("city name = %q", city.Name)
	}
	if city.Metrics["reachable-frac"] != 0.625 {
		t.Errorf("custom metric = %v", city.Metrics)
	}
	if sum.Env == nil || sum.Env.CPUModel != "Intel(R) Xeon(R)" {
		t.Errorf("cpu: header not captured: %+v", sum.Env)
	}
}

func TestComputeRatio(t *testing.T) {
	sum, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	r, err := computeRatio("city_speedup=AllPathsFull/AllPathsCity", sum.Benchmarks)
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup < 2.4 || r.Speedup > 2.5 {
		t.Errorf("speedup = %v, want ~2.456", r.Speedup)
	}
	if _, err := computeRatio("bad=Missing/AllPathsFull", sum.Benchmarks); err == nil {
		t.Error("missing benchmark accepted")
	}
	if _, err := computeRatio("malformed", sum.Benchmarks); err == nil {
		t.Error("malformed spec accepted")
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\n")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestParseCustomEventsPerSec(t *testing.T) {
	const line = "BenchmarkReplayDispatch \t1000\t 11.76 ns/op\t 85056888 events/sec\t 0 B/op\t 0 allocs/op\n"
	sum, err := parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.Benchmarks[0].Metrics["events/sec"]; got != 85056888 {
		t.Errorf("events/sec = %v, want 85056888", got)
	}
	if a := sum.Benchmarks[0].AllocsPerOp; a == nil || *a != 0 {
		t.Errorf("allocs/op = %v, want 0", a)
	}
}

// transcript renders one `go test -bench` line per sample of name.
func transcript(name string, ns ...float64) string {
	var b strings.Builder
	for _, v := range ns {
		fmt.Fprintf(&b, "Benchmark%s-2 \t100\t %g ns/op\n", name, v)
	}
	return b.String()
}

// parsed parses a synthetic transcript.
func parsed(t *testing.T, s string) []Result {
	t.Helper()
	sum, err := parse(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return sum.Benchmarks
}

func TestParseKeepsRepeatedSamples(t *testing.T) {
	rs := parsed(t, "pkg: a\n"+transcript("X", 30, 10)+"PASS\npkg: b\n"+transcript("Y", 5)+transcript("X", 20))
	var xs []float64
	for _, r := range rs {
		if r.Name == "X" {
			xs = append(xs, r.NsPerOp)
		}
	}
	if len(rs) != 4 || fmt.Sprint(xs) != "[30 10 20]" {
		t.Fatalf("parsed %d results with X samples %v, want 4 with [30 10 20]", len(rs), xs)
	}
	by, order := samples(rs)
	if fmt.Sprint(order) != "[X Y]" || median(by["X"]) != 20 {
		t.Errorf("samples order %v, X median %v; want [X Y] and 20", order, median(by["X"]))
	}
}

// TestCompareBaseline: the parent revision is the baseline of the
// paired mode. A bench only the parent runs is retired, one only the
// change runs is new, and neither is a slowdown.
func TestCompareBaseline(t *testing.T) {
	parent := parsed(t, transcript("Shared", 40, 41, 39)+transcript("OnlyInParent", 10, 10, 10))
	change := parsed(t, transcript("Shared", 40, 40, 40)+transcript("OnlyInChange", 5, 5, 5))
	got := pair(parent, change)
	want := []Paired{
		{Name: "Shared", ParentNs: 40, ChangeNs: 40, ParentIQR: 1, Speed: 1, Verdict: "ok"},
		{Name: "OnlyInChange", ChangeNs: 5, Verdict: "new"},
		{Name: "OnlyInParent", ParentNs: 10, Verdict: "retired"},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("pair = %+v\nwant   %+v", got, want)
	}
}

// TestCheckRegressions pins the paired verdict: a uniform 1.5x slowdown
// under the same noise fails, the same noise on both sides passes, and
// a slowdown the parent's own spread covers passes.
func TestCheckRegressions(t *testing.T) {
	noise := []float64{1.00, 1.08, 0.95, 1.03, 0.97}
	scaled := func(f float64) []float64 {
		v := make([]float64, len(noise))
		for i, n := range noise {
			v[i] = 1e6 * f * n
		}
		return v
	}
	base := parsed(t, transcript("Dispatch", scaled(1)...))
	cases := []struct {
		name   string
		change []float64
		want   string
	}{
		{"same-noise", scaled(1), "ok"},
		{"same-noise-reordered", []float64{0.97e6, 1.03e6, 1.00e6, 1.08e6, 0.95e6}, "ok"},
		{"uniform-1.5x", scaled(1.5), "slower"},
		{"faster", scaled(0.5), "ok"},
		{"just-inside-bound", scaled(1.3), "ok"},
	}
	for _, c := range cases {
		got := pair(base, parsed(t, transcript("Dispatch", c.change...)))
		if len(got) != 1 || got[0].Verdict != c.want {
			t.Errorf("%s: %+v, want verdict %s", c.name, got, c.want)
		}
	}
	// The parent's spread decides: the same 1.5x median gap inside a
	// wider interquartile range is noise, not a slowdown.
	wide := parsed(t, transcript("Dispatch", 0.5e6, 0.6e6, 1e6, 1.7e6, 1.8e6))
	if got := pair(wide, parsed(t, transcript("Dispatch", scaled(1.5)...))); got[0].Verdict != "ok" {
		t.Errorf("1.5x inside a 1.1e6 ns parent IQR: %+v, want ok", got[0])
	}
}

// TestRunBaselineCoverage pins the run-level behaviour of the paired
// mode against a parent transcript: retired and new benchmarks are
// reported without failing, a slowdown fails and names the benchmark,
// and the output file is written either way.
func TestRunBaselineCoverage(t *testing.T) {
	dir := t.TempDir()
	write := func(p, s string) {
		t.Helper()
		if err := os.WriteFile(p, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(dir+"/parent.txt", transcript("Shared", 40, 40, 40)+transcript("Old", 40, 40, 40))
	write(dir+"/grown.txt", transcript("Shared", 40, 41, 40)+transcript("New", 40, 40, 40))
	write(dir+"/slower.txt", transcript("Shared", 60, 61, 60)+transcript("Old", 40, 40, 40))
	if err := run([]string{"-o", dir + "/grown.json", "-parent", dir + "/parent.txt", dir + "/grown.txt"}); err != nil {
		t.Errorf("retired and new benchmarks must not fail: %v", err)
	}
	buf, err := os.ReadFile(dir + "/grown.json")
	if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	if err := json.Unmarshal(buf, &sum); err != nil {
		t.Fatal(err)
	}
	verdicts := map[string]string{}
	for _, p := range sum.Paired {
		verdicts[p.Name] = p.Verdict
	}
	if fmt.Sprint(verdicts) != "map[New:new Old:retired Shared:ok]" {
		t.Errorf("verdicts = %v", verdicts)
	}
	err = run([]string{"-o", dir + "/slower.json", "-parent", dir + "/parent.txt", dir + "/slower.txt"})
	if err == nil || !strings.Contains(err.Error(), "Shared") {
		t.Errorf("a 1.5x slower benchmark must fail and be named: %v", err)
	}
	if _, serr := os.Stat(dir + "/slower.json"); serr != nil {
		t.Errorf("output must be written even when the gate fails: %v", serr)
	}
}

// TestRunFailLines: a FAIL line in the input fails the run, so a
// benchmark's own checks (a peak-RSS cap) gate it.
func TestRunFailLines(t *testing.T) {
	dir := t.TempDir()
	in := transcript("Shared", 40) + "--- FAIL: BenchmarkCityScaleReplay-2\n    bench_test.go:9: peak RSS over cap\nFAIL\tdtncache/internal/sim\t3.1s\n"
	if err := os.WriteFile(dir+"/in.txt", []byte(in), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-o", dir + "/out.json", dir + "/in.txt"})
	if err == nil || !strings.Contains(err.Error(), "CityScaleReplay") {
		t.Errorf("a failed benchmark must fail the run and be named: %v", err)
	}
}

func TestRunBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	outPath := dir + "/out.json"
	write := func(p, s string) {
		t.Helper()
		if err := os.WriteFile(p, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(dir+"/parent.txt", transcript("ReplayDispatch", 40, 40))
	write(dir+"/change.txt", transcript("ReplayDispatch", 10, 10))
	if err := run([]string{"-o", outPath, "-parent", dir + "/parent.txt", dir + "/change.txt"}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	if err := json.Unmarshal(buf, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Env == nil || sum.Env.GoVersion == "" || sum.Env.GoMaxProcs < 1 {
		t.Errorf("env block missing or incomplete: %+v", sum.Env)
	}
	if sum.Manifest == nil || sum.Manifest.GoVersion == "" || sum.Manifest.GoMaxProcs < 1 {
		t.Errorf("manifest missing or incomplete: %+v", sum.Manifest)
	}
	if sum.Parent != dir+"/parent.txt" || len(sum.Paired) != 1 || sum.Paired[0].Speed != 4 {
		t.Errorf("parent %q, paired = %+v, want one 4x entry", sum.Parent, sum.Paired)
	}
	// The inverse comparison is 4x slower and must fail — but still
	// write the output file for inspection.
	failPath := dir + "/fail.json"
	if err := run([]string{"-o", failPath, "-parent", dir + "/change.txt", dir + "/parent.txt"}); err == nil {
		t.Error("4x slowdown must fail")
	}
	if _, err := os.Stat(failPath); err != nil {
		t.Errorf("output must be written even when the gate fails: %v", err)
	}
	if err := run([]string{"-parent", dir + "/missing.txt", dir + "/change.txt"}); err == nil {
		t.Error("a missing parent transcript must be rejected")
	}
}
