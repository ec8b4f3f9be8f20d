// Command benchjson converts `go test -bench` output into a JSON
// summary, optionally computing named speedup ratios between benchmark
// pairs — the format behind the repo's committed BENCH_*.json files.
//
// Usage:
//
//	go test ./... -bench . -benchmem | benchjson -o BENCH.json \
//	    -ratio comparison_speedup=RunComparisonIsolated/RunComparison
//
// With -parent, the input is compared against the transcript of the
// same suite run on the parent revision, on the same machine: the
// paired mode behind the bench gate in scripts/check.sh. Both
// transcripts may hold several samples of a benchmark (one per round).
// Each benchmark gets the median ns/op of each side and the parent's
// interquartile range, and the run fails when any benchmark is slower
// than slowerBound times the parent's speed by more than that range. A
// benchmark only the parent runs is reported as retired, one only the
// change runs as new; neither fails the run.
//
// Input lines that are not benchmark results (goos/pkg headers, PASS,
// ok) are ignored, so whole `go test` transcripts can be piped in. A
// FAIL line in the input fails the run, so a benchmark's own checks,
// such as a peak-RSS cap, gate it too.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"dtncache/internal/obs"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name without the "Benchmark" prefix and
	// without the -GOMAXPROCS suffix.
	Name string `json:"name"`
	// Iterations is b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the ns/op measurement.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp is B/op when -benchmem was set.
	BytesPerOp *float64 `json:"bytes_per_op,omitempty"`
	// AllocsPerOp is allocs/op when -benchmem was set.
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds any extra b.ReportMetric units (e.g. reused-frac).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Ratio is a derived speedup: NsPerOp(Numerator) / NsPerOp(Denominator).
type Ratio struct {
	Name        string  `json:"name"`
	Numerator   string  `json:"numerator"`
	Denominator string  `json:"denominator"`
	Speedup     float64 `json:"speedup"`
}

// EnvInfo pins the toolchain, parallelism and CPU a BENCH file was
// produced with, so committed BENCH_*.json files stay comparable
// across PRs.
type EnvInfo struct {
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
}

// Paired is one benchmark of the paired mode. Speed is ParentNs /
// ChangeNs, so below 1 the change is slower.
type Paired struct {
	Name      string  `json:"name"`
	ParentNs  float64 `json:"parent_ns_per_op,omitempty"`
	ChangeNs  float64 `json:"change_ns_per_op,omitempty"`
	ParentIQR float64 `json:"parent_iqr_ns,omitempty"`
	Speed     float64 `json:"speed,omitempty"`
	// Verdict is "ok", "slower" (fails the run), "new" or "retired".
	Verdict string `json:"verdict"`
}

// slowerBound is the paired mode's speed floor: a benchmark fails when
// it runs below this fraction of the parent's speed and the gap is
// wider than the parent's interquartile range. A 1.5x slowdown reads
// 0.67 and trips it.
const slowerBound = 0.75

// Summary is the emitted JSON document. Env predates Manifest and is
// kept so the committed BENCH_*.json trend records share one format;
// Manifest adds the git revision and config-digest provenance shared
// with recorded run traces.
type Summary struct {
	Env        *EnvInfo      `json:"env,omitempty"`
	Manifest   *obs.Manifest `json:"manifest,omitempty"`
	Benchmarks []Result      `json:"benchmarks"`
	Ratios     []Ratio       `json:"ratios,omitempty"`
	Parent     string        `json:"parent,omitempty"`
	Paired     []Paired      `json:"paired,omitempty"`

	// failures holds the transcript's FAIL lines.
	failures []string
}

func main() {
	err := run(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return // usage already printed; --help is a successful exit
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	var (
		out    = fs.String("o", "", "write JSON here (default stdout)")
		parent = fs.String("parent", "", "`transcript` of the same suite on the parent revision: compare paired, and fail on a slowdown")
		ratios []string
	)
	fs.Func("ratio", "derived speedup `name=NumeratorBench/DenominatorBench` (repeatable)", func(v string) error {
		ratios = append(ratios, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}

	var in io.Reader = os.Stdin
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	} else if fs.NArg() > 1 {
		return fmt.Errorf("at most one input file, got %d", fs.NArg())
	}

	sum, err := parse(in)
	if err != nil {
		return err
	}
	// The bench output's own cpu: header names the machine the numbers
	// were measured on; fall back to the host's when the input lacks it.
	cpu := ""
	if sum.Env != nil {
		cpu = sum.Env.CPUModel
	}
	if cpu == "" {
		cpu = hostCPUModel()
	}
	sum.Env = &EnvInfo{GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0), CPUModel: cpu}
	m := obs.NewManifest("", "", 0, nil)
	sum.Manifest = &m
	for _, r := range ratios {
		ratio, err := computeRatio(r, sum.Benchmarks)
		if err != nil {
			return err
		}
		sum.Ratios = append(sum.Ratios, ratio)
	}
	if *parent != "" {
		f, err := os.Open(*parent)
		if err != nil {
			return err
		}
		base, err := parse(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("parent %s: %w", *parent, err)
		}
		sum.Parent = *parent
		sum.Paired = pair(base.Benchmarks, sum.Benchmarks)
		writePaired(os.Stderr, sum.Paired)
	}

	buf, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(buf); err != nil {
			return err
		}
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	if len(sum.failures) > 0 {
		return fmt.Errorf("the input reports failures: %s", strings.Join(sum.failures, "; "))
	}
	var slower []string
	for _, p := range sum.Paired {
		if p.Verdict == "slower" {
			slower = append(slower, fmt.Sprintf("%s %.3fx", p.Name, p.Speed))
		}
	}
	if len(slower) > 0 {
		return fmt.Errorf("slower than %.2fx the parent beyond its spread: %s", slowerBound, strings.Join(slower, ", "))
	}
	return nil
}

// hostCPUModel names the host CPU from /proc/cpuinfo ("" when the
// platform does not expose one).
func hostCPUModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(buf), "\n") {
		key, val, found := strings.Cut(line, ":")
		if !found {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name", "cpu model", "Processor": // x86, MIPS, older ARM
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// pair compares the change's samples with the parent's, bench by
// bench, in the change's order and then the retired benches in the
// parent's.
func pair(parent, change []Result) []Paired {
	ps, porder := samples(parent)
	cs, corder := samples(change)
	var out []Paired
	for _, name := range corder {
		pv, ok := ps[name]
		if !ok {
			out = append(out, Paired{Name: name, ChangeNs: median(cs[name]), Verdict: "new"})
			continue
		}
		p := Paired{Name: name, ParentNs: median(pv), ChangeNs: median(cs[name]), Verdict: "ok"}
		p.ParentIQR = quantile(pv, 0.75) - quantile(pv, 0.25)
		if p.ChangeNs > 0 {
			p.Speed = p.ParentNs / p.ChangeNs
		}
		if p.Speed < slowerBound && p.ChangeNs-p.ParentNs > p.ParentIQR {
			p.Verdict = "slower"
		}
		out = append(out, p)
	}
	for _, name := range porder {
		if _, ok := cs[name]; !ok {
			out = append(out, Paired{Name: name, ParentNs: median(ps[name]), Verdict: "retired"})
		}
	}
	return out
}

// samples groups every ns/op sample by benchmark name, with the names
// in order of first appearance.
func samples(rs []Result) (map[string][]float64, []string) {
	by := make(map[string][]float64)
	var order []string
	for _, r := range rs {
		if _, ok := by[r.Name]; !ok {
			order = append(order, r.Name)
		}
		by[r.Name] = append(by[r.Name], r.NsPerOp)
	}
	return by, order
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between the order statistics of v.
func quantile(v []float64, q float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// writePaired prints the paired comparison as a table.
func writePaired(w io.Writer, ps []Paired) {
	fmt.Fprintf(w, "%-28s %14s %14s %14s %7s  %s\n", "benchmark", "parent ns/op", "change ns/op", "parent IQR", "speed", "verdict")
	for _, p := range ps {
		fmt.Fprintf(w, "%-28s %14.4g %14.4g %14.4g %7.3f  %s\n", p.Name, p.ParentNs, p.ChangeNs, p.ParentIQR, p.Speed, p.Verdict)
	}
}

// parse extracts benchmark result lines from a `go test -bench`
// transcript.
func parse(r io.Reader) (*Summary, error) {
	sum := &Summary{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "FAIL" || strings.HasPrefix(line, "FAIL\t") || strings.HasPrefix(line, "--- FAIL") {
			sum.failures = append(sum.failures, line)
			continue
		}
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			sum.Env = &EnvInfo{CPUModel: strings.TrimSpace(cpu)}
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name iterations, then (value unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "Benchmarking..." noise
		}
		res := Result{Name: benchName(fields[0]), Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad measurement %q in %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = val
			case "B/op":
				v := val
				res.BytesPerOp = &v
			case "allocs/op":
				v := val
				res.AllocsPerOp = &v
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[unit] = val
			}
		}
		sum.Benchmarks = append(sum.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(sum.Benchmarks) == 0 {
		return nil, errors.New("no benchmark lines found in input")
	}
	return sum, nil
}

// benchName strips the Benchmark prefix and the -GOMAXPROCS suffix.
func benchName(s string) string {
	s = strings.TrimPrefix(s, "Benchmark")
	if i := strings.LastIndex(s, "-"); i > 0 {
		if _, err := strconv.Atoi(s[i+1:]); err == nil {
			s = s[:i]
		}
	}
	return s
}

// computeRatio resolves one -ratio spec against the parsed results.
func computeRatio(spec string, results []Result) (Ratio, error) {
	name, expr, ok := strings.Cut(spec, "=")
	if !ok {
		return Ratio{}, fmt.Errorf("ratio %q: want name=Numerator/Denominator", spec)
	}
	num, den, ok := strings.Cut(expr, "/")
	if !ok {
		return Ratio{}, fmt.Errorf("ratio %q: want name=Numerator/Denominator", spec)
	}
	find := func(n string) (Result, error) {
		for _, r := range results {
			if r.Name == n {
				return r, nil
			}
		}
		return Result{}, fmt.Errorf("ratio %q: benchmark %q not in input", name, n)
	}
	a, err := find(num)
	if err != nil {
		return Ratio{}, err
	}
	b, err := find(den)
	if err != nil {
		return Ratio{}, err
	}
	if b.NsPerOp == 0 {
		return Ratio{}, fmt.Errorf("ratio %q: %s has zero ns/op", name, den)
	}
	return Ratio{Name: name, Numerator: num, Denominator: den, Speedup: a.NsPerOp / b.NsPerOp}, nil
}
