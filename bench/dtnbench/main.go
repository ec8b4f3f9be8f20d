// Command dtnbench is the repository's benchmark: four workloads that
// cover batch replay, the figure sweeps and the dtnserved service, each
// reporting end-to-end metrics (untraced runs) or per-layer metrics
// (traced runs). bench/README.md describes the workloads, the metrics
// and how to run them; bench/run.sh builds this command and dtnserved
// from the checkout and runs it.
//
//	dtnbench --workload replay-dense --seed 1 --seconds 20 --trace 0
//	dtnbench --seed 1                      # every workload, one child process each
//	dtnbench ab -base REV -pairs 10        # paired A/B against another revision
//
// A single-workload run prints every metric by name with its unit and,
// as its last line, a JSON object with the keys correct, attempted,
// failed and metrics. It exits non-zero when a correctness gate fails.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name    string
	measure func(*run) error // untraced: end-to-end metrics
	layers  func(*run) error // traced: per-layer metrics
}

var workloads = []workload{
	{replayDense.name, replayDense.measure, replayDense.layers},
	{replaySparse.name, replaySparse.measure, replaySparse.layers},
	{"sweep-fig10", sweepMeasure, sweepLayers},
	{"serve-mixed", serveMeasure, serveLayers},
}

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "dtnbench:", err)
			os.Exit(1)
		}
	}
}

// options are the flags shared by a single-workload run, an
// every-workload run and the A/B subcommand.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out, bin string
}

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (empty = every workload, each in its own child process)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs: traces, engine workload and load generator")
	fs.IntVar(&o.seconds, "seconds", 20, "seconds each workload measures")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for scratch files, spans and results")
	fs.StringVar(&o.bin, "bin", "", "directory holding the dtnserved binary (default: this binary's directory)")
}

// args renders the options as flags for a child dtnbench.
func (o *options) args(workload string) []string {
	return []string{
		"--workload", workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace),
		"--out", o.out, "--bin", o.bin,
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func mainErr(argv []string) error {
	if len(argv) > 0 && argv[0] == "ab" {
		return runAB(argv[1:])
	}
	var o options
	fs := flag.NewFlagSet("dtnbench", flag.ContinueOnError)
	o.register(fs)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	if o.bin == "" {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		o.bin = filepath.Dir(exe)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if o.workload == "" {
		return runAll(o)
	}
	for _, w := range workloads {
		if w.name == o.workload {
			return runOne(w, o)
		}
	}
	return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
}

// runOne runs one workload in this process.
func runOne(w workload, o options) error {
	if _, err := os.Stat(filepath.Join(o.bin, "dtnserved")); err != nil && w.name == "serve-mixed" {
		return fmt.Errorf("no dtnserved in %s: build both binaries with bench/run.sh", o.bin)
	}
	r := &run{
		workload: w.name, seed: o.seed, seconds: time.Duration(o.seconds) * time.Second,
		traced: o.trace == 1, dir: o.out, bin: o.bin,
		values: make(map[string]float64),
	}
	if r.traced {
		r.tr = newTracer(w.name)
		if err := w.layers(r); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		path, err := r.tr.write(o.out)
		if err != nil {
			return err
		}
		fmt.Printf("spans: %s\n", path)
	} else if err := w.measure(r); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	res, err := r.report(os.Stdout)
	if err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d correctness check(s) failed", w.name, len(r.failures))
	}
	return nil
}

// runAll runs every workload, one after another, each in its own child
// process, and writes their results to results-seed<N>-trace<T>.json.
func runAll(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	all := make(map[string]result)
	var failed []string
	for _, w := range workloads {
		fmt.Printf("== %s (seed %d, %ds, trace %d)\n", w.name, o.seed, o.seconds, o.trace)
		res, err := runChild(exe, "", o.args(w.name), os.Stdout)
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
			continue
		}
		all[w.name] = res
	}
	b, err := json.MarshalIndent(struct {
		Seed    int64             `json:"seed"`
		Trace   int               `json:"trace"`
		Results map[string]result `json:"results"`
	}{o.seed, o.trace, all}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("results-seed%d-trace%d.json", o.seed, o.trace))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("results: %s\n", path)
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

// errNoResult marks a child run that printed no result object.
var errNoResult = errors.New("no result line")

// runChild runs a dtnbench binary in dir, copying its standard output to
// w, and parses the result object on its last line. A run whose checks
// failed returns its result together with the exit error.
func runChild(exe, dir string, args []string, w io.Writer) (result, error) {
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Stdout = io.MultiWriter(w, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var res result
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, errors.Join(runErr, fmt.Errorf("%w: %w", errNoResult, err))
	}
	return res, runErr
}
