package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// benchFile is the part of BENCHMARK.json the A/B comparison reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchFile(path string) (benchFile, error) {
	var bf benchFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

// runAB compares the checkout it runs in (the change) with another
// revision (the base) on the same machine. The base tree is exported
// from git, given this checkout's bench/ directory so both sides run
// identical benchmark code, and built; then each pair runs both sides
// back to back on one seed, alternating which side goes first. A run
// whose checks fail still counts its metrics, and every (workload,
// metric) of a change with more failed ops or checks than the base is
// judged regressed.
func runAB(argv []string) error {
	fs := flag.NewFlagSet("dtnbench ab", flag.ContinueOnError)
	base := fs.String("base", "", "git revision to compare against (required)")
	pairs := fs.Int("pairs", 10, "paired runs per workload; gains are claimed only from 10 pairs up")
	var o options
	o.register(fs)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *base == "" || *pairs < 1 {
		return errors.New("ab needs -base REV and -pairs >= 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	bf, err := readBenchFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	names := workloadNames()
	if o.workload != "" {
		names = []string{o.workload}
	}
	headBin := o.bin
	if headBin == "" {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		headBin = filepath.Dir(exe)
	}
	baseRoot := filepath.Join(root, ".bench_build", "ab", sanitize(*base))
	if err := exportTree(root, *base, baseRoot); err != nil {
		return err
	}
	baseBin := filepath.Join(baseRoot, ".bench_build", "bin")
	for _, b := range [][]string{
		{"-C", filepath.Join(baseRoot, "bench"), "build", "-o", baseBin + "/", "./dtnbench"},
		{"-C", baseRoot, "build", "-o", baseBin + "/", "./cmd/dtnserved"},
	} {
		cmd := exec.Command("go", b...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("build base %s: go %s: %w", *base, strings.Join(b, " "), err)
		}
	}
	type side struct{ root, bin string }
	sides := [2]side{{baseRoot, baseBin}, {root, headBin}}
	// vals[workload][metric][side] holds one value per pair; bad[workload]
	// [side] counts that side's failed ops and failed correctness checks.
	vals := make(map[string]map[string][2][]float64)
	bad := make(map[string]*[2]int)
	for _, w := range names {
		vals[w] = make(map[string][2][]float64)
		bad[w] = new([2]int)
		for p := range *pairs {
			seed := o.seed + int64(p)
			order := []int{0, 1}
			if p%2 == 1 {
				order = []int{1, 0}
			}
			for _, s := range order {
				sd := sides[s]
				ro := options{seed: seed, seconds: o.seconds, out: filepath.Join(sd.root, ".bench_build", "out"), bin: sd.bin}
				fmt.Fprintf(os.Stderr, "ab: %s pair %d/%d seed %d: %s\n", w, p+1, *pairs, seed, []string{"base", "change"}[s])
				res, err := runChild(filepath.Join(sd.bin, "dtnbench"), sd.root, ro.args(w), io.Discard)
				if errors.Is(err, errNoResult) {
					return fmt.Errorf("%s pair %d %s: %w", w, p+1, []string{"base", "change"}[s], err)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "ab: %s pair %d %s: %v\n", w, p+1, []string{"base", "change"}[s], err)
				}
				bad[w][s] += res.Failed
				if !res.Correct {
					bad[w][s]++
				}
				for m, v := range res.Metrics {
					pv := vals[w][m]
					pv[s] = append(pv[s], v.Value)
					vals[w][m] = pv
				}
			}
		}
	}
	fmt.Printf("A/B: base %s vs this checkout, %d pairs, %ds runs\n", *base, *pairs, o.seconds)
	fmt.Printf("%-14s %-12s %24s %24s %6s %7s  %s\n", "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins", "gain", "verdict")
	for _, w := range names {
		for _, m := range bf.EndToEnd {
			v := vals[w][m.Name]
			verdict, wins, gain := judge(v[0], v[1], m.Better == "higher", m.Bound)
			// A change that fails more ops or checks than the base is not
			// faster, whatever its times say.
			if bad[w][1] > bad[w][0] {
				verdict = fmt.Sprintf("regressed (%d failed ops or checks, base %d)", bad[w][1], bad[w][0])
			}
			b1, b2, b3 := quartiles(v[0])
			c1, c2, c3 := quartiles(v[1])
			fmt.Printf("%-14s %-12s %24s %24s %6s %+6.1f%%  %s\n", w, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", b2, b1, b3), fmt.Sprintf("%.4g [%.4g, %.4g]", c2, c1, c3),
				fmt.Sprintf("%d/%d", wins, len(v[0])), 100*gain, verdict)
		}
	}
	return nil
}

// judge labels one (workload, metric) pair of samples, one value per
// pair of runs. The change wins a pair when it reads better, ties
// counting for neither. "improved": it wins at least nine tenths of at
// least ten pairs and the medians differ by more than the base's
// interquartile range. "unresolved": the base's own spread is wider than
// the bound and not every change run beats every base run, or the gain
// rests on fewer than ten pairs. "regressed": the change's median is
// worse than the base's by more than the bound. gain is the change's
// relative improvement of the median.
func judge(base, change []float64, higher bool, bound float64) (verdict string, wins int, gain float64) {
	better := func(a, b float64) bool { return a != b && (a > b) == higher }
	allBetter := true
	for i := range base {
		if better(change[i], base[i]) {
			wins++
		}
		for _, b := range base {
			allBetter = allBetter && better(change[i], b)
		}
	}
	b1, bm, b3 := quartiles(base)
	_, cm, _ := quartiles(change)
	gain = (bm - cm) / bm
	if higher {
		gain = -gain
	}
	n := len(base)
	claim := float64(wins) >= 0.9*float64(n) && better(cm, bm) && math.Abs(cm-bm) > b3-b1
	switch spread := (b3 - b1) / bm; {
	case claim && n >= 10:
		return "improved", wins, gain
	case claim:
		return "unresolved (fewer than 10 pairs)", wins, gain
	case spread > bound && !allBetter:
		return fmt.Sprintf("unresolved (base spread %.1f%%)", 100*spread), wins, gain
	case -gain > bound:
		return "regressed", wins, gain
	default:
		return "within bound", wins, gain
	}
}

func sanitize(rev string) string {
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '.' || r == '-' {
			return r
		}
		return '_'
	}, rev)
}

// exportTree writes the files of rev (as `git archive` packs them) to
// dst, then replaces its bench/ directory and BENCHMARK.json with this
// checkout's, so both sides of the comparison run the same benchmark.
func exportTree(root, rev, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	tarball := dst + ".tar"
	defer os.Remove(tarball)
	for _, c := range [][]string{
		{"git", "archive", "--format=tar", "--output=" + tarball, rev},
		{"tar", "-xf", tarball, "-C", dst},
		{"rm", "-rf", filepath.Join(dst, "bench")},
		{"cp", "-R", "bench", "BENCHMARK.json", dst},
	} {
		cmd := exec.Command(c[0], c[1:]...)
		cmd.Dir, cmd.Stderr = root, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", strings.Join(c, " "), err)
		}
	}
	return nil
}
