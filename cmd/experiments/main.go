// Command experiments regenerates the tables and figures of the paper's
// evaluation (Sec. VI). Each experiment prints a text table whose shape
// should be compared against the published figure; see EXPERIMENTS.md
// for the recorded comparison.
//
// Usage:
//
//	experiments               # run everything (several minutes)
//	experiments -fig 10       # only Fig. 10
//	experiments -fig table1   # only Table I
//	experiments -quick        # reduced sweeps (~1 minute)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dtncache/internal/cli"
	"dtncache/internal/experiment"
	"dtncache/internal/obs"
	"dtncache/internal/prof"
)

func main() {
	err := run(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return // usage already printed; --help is a successful exit
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		fig        = fs.String("fig", "all", "which artifact to regenerate: table1, 4, 7, 9, 10, 11, 12, 13, ablation, delay, robustness, degradation, routing, traces, rwp, all")
		seed       = fs.Int64("seed", 1, "random seed")
		repeats    = fs.Int("repeats", 1, "repetitions to average per cell")
		quick      = fs.Bool("quick", false, "reduced sweeps for a fast pass")
		faultChurn = fs.Float64("fault-churn", 0, "degradation sweep: collapse the intensity axis to {0, this} crashes/node/day")
		faultDown  = fs.Duration("fault-downtime", 0, "degradation sweep: mean downtime per crash (0 = default)")
		csvOut     = fs.Bool("csv", false, "emit CSV instead of aligned text")
		outDir     = fs.String("outdir", "", "also write each table as CSV into this directory")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile to this `file`")
		memProf    = fs.String("memprofile", "", "write a heap profile to this `file` after the run")
		progress   = fs.Bool("progress", false, "print a completion line per sweep cell to stderr")
		of         = cli.AddObsFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	o := experiment.FigureOptions{
		Seed: *seed, Repeats: *repeats, Quick: *quick,
		FaultChurnPerDay: *faultChurn, FaultDowntimeSec: faultDown.Seconds(),
	}

	// Observability rides on the experiment cell hook: every completed
	// sweep cell (one simulation run) reports its scheme and wall time.
	// Cells run in parallel, so the hook serializes recorder access with
	// a mutex.
	rec, ring, err := of.NewRecorder()
	if err != nil {
		return err
	}
	if rec == nil && *progress {
		// -progress alone still needs the phase timers for the cell hook.
		rec = obs.NewRecorder(nil, obs.WithPhases(obs.NewPhases(cli.WallClock)))
	}
	var manifest obs.Manifest
	if rec != nil {
		phases := rec.Phases()
		manifest = obs.NewManifest("", *fig, *seed, o)
		if ring == nil {
			rec.Manifest(manifest)
		}
		var mu sync.Mutex
		var cells int64
		wallStart := time.Now()
		experiment.SetCellHook(func(schemeName string, wallNs int64) {
			mu.Lock()
			defer mu.Unlock()
			cells++
			phases.Add("cell:"+schemeName, wallNs)
			rec.Cell(cells, float64(wallNs)/1e9, schemeName)
			if *progress {
				fmt.Fprintf(os.Stderr, "[progress] cell %d (%s) done in %s, elapsed %s\n",
					cells, schemeName, time.Duration(wallNs).Round(time.Millisecond),
					time.Since(wallStart).Round(time.Second))
			}
		})
		defer experiment.SetCellHook(nil)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	emit := func(t *experiment.Table) error {
		if *outDir != "" {
			name := strings.ToLower(strings.NewReplacer(" ", "-", ".", "").Replace(t.ID)) + ".csv"
			f, err := os.Create(filepath.Join(*outDir, name))
			if err != nil {
				return err
			}
			if err := t.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		if *csvOut {
			return t.WriteCSV(os.Stdout)
		}
		fmt.Println(t.Format())
		return nil
	}

	type job struct {
		key string
		run func() error
	}
	one := func(f func(experiment.FigureOptions) (*experiment.Table, error)) func() error {
		return func() error {
			t, err := f(o)
			if err != nil {
				return err
			}
			return emit(t)
		}
	}
	jobs := []job{
		{"table1", one(experiment.Table1)},
		{"4", one(experiment.Fig4)},
		{"7", one(experiment.Fig7)},
		{"9", func() error {
			a, b, err := experiment.Fig9(o)
			if err != nil {
				return err
			}
			if err := emit(a); err != nil {
				return err
			}
			return emit(b)
		}},
		{"10", one(experiment.Fig10)},
		{"11", one(experiment.Fig11)},
		{"12", one(experiment.Fig12)},
		{"13", one(experiment.Fig13)},
		{"ablation", one(experiment.Ablations)},
		{"delay", one(experiment.DelayBreakdown)},
		{"robustness", one(experiment.Robustness)},
		{"degradation", one(experiment.Degradation)},
		{"routing", one(experiment.RoutingComparison)},
		{"traces", one(experiment.CrossTrace)},
		{"rwp", one(experiment.RWPComparison)},
	}
	want := strings.ToLower(*fig)
	ran := false
	for _, j := range jobs {
		if want != "all" && want != j.key {
			continue
		}
		start := time.Now()
		if err := j.run(); err != nil {
			if ring != nil {
				cli.DumpRingErr(manifest, ring)
			}
			_ = rec.Close()
			return fmt.Errorf("experiment %s: %w", j.key, err)
		}
		if !*csvOut {
			fmt.Printf("[%s done in %s]\n\n", j.key, time.Since(start).Round(time.Millisecond))
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown -fig %q", *fig)
	}
	if ring != nil && *of.TraceOut != "" {
		w, werr := cli.OpenTraceOut(*of.TraceOut)
		if werr != nil {
			return werr
		}
		if werr = cli.DumpRing(w, manifest, ring); werr != nil {
			return werr
		}
	}
	if err := rec.Close(); err != nil {
		return err
	}
	if *of.Summary {
		_ = manifest.WriteSummary(os.Stderr)
		_ = rec.WriteSummary(os.Stderr)
	}
	return stopProf()
}
