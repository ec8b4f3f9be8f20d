// Command dtnsim runs one trace-driven simulation of a DTN data access
// scheme and prints the evaluation metrics.
//
// Usage:
//
//	dtnsim -trace Infocom06 -scheme Intentional -tl 3h -savg 100 -k 5
//	dtnsim -tracefile contacts.txt -scheme BundleCache
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dtncache/internal/cli"
	"dtncache/internal/engine"
	"dtncache/internal/experiment"
	"dtncache/internal/metrics"
	"dtncache/internal/obs"
	"dtncache/internal/prof"
)

func main() {
	err := run(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return // usage already printed; --help is a successful exit
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtnsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dtnsim", flag.ContinueOnError)
	var (
		tf         = cli.AddTraceFlags(fs)
		schemeName = fs.String("scheme", engine.SchemeIntentional, "scheme: "+strings.Join(append(engine.SchemeNames(), engine.ReplacementNames()[1:]...), ", "))
		ef         = cli.AddEngineFlags(fs)
		ff         = cli.AddFaultFlags(fs)
		of         = cli.AddObsFlags(fs)
		repeats    = fs.Int("repeats", 1, "number of repetitions to average")
		jsonOut    = fs.Bool("json", false, "emit the report as JSON instead of text")
		reportJSON = fs.Bool("report-json", false, "emit only the bare single-run report as JSON (the dtnserved /report encoding; forces a single un-averaged run)")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile to this `file`")
		memProf    = fs.String("memprofile", "", "write a heap profile to this `file` after the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}

	rec, ring, err := of.NewRecorder()
	if err != nil {
		return err
	}

	doneLoad := rec.Phase("trace-load")
	tr, err := tf.Load(*ef.Seed)
	doneLoad()
	if err != nil {
		return err
	}

	setup, err := ef.Config(tr, ff.Config(tr.Duration), rec)
	if err != nil {
		return err
	}
	setup.Stream = tf.Opener()
	manifest := obs.NewManifest(tr.Name, *schemeName, *ef.Seed, cli.Digestable(setup))
	if ring == nil {
		// Stream sink: the manifest is the first recorded line. With a
		// flight-recorder ring it is prepended at dump time instead, so
		// it cannot be overwritten.
		rec.Manifest(manifest)
	}
	start := time.Now()
	var rep metrics.Report
	if *ef.Invariants || *reportJSON {
		// The invariant checker lives on the environment and the bare
		// report must come from the one engine replay dtnserved executes,
		// so both modes run a single un-averaged engine they can inspect.
		setup.Scheme = *schemeName
		var eng *engine.Engine
		if eng, err = engine.New(setup); err == nil {
			rep, err = eng.Run()
			if err == nil {
				err = eng.ReplayErr()
			}
			if err == nil && *ef.Invariants {
				if v := eng.InvariantViolations(); len(v) > 0 {
					err = fmt.Errorf("%d invariant violation(s), first: %s", len(v), v[0])
				}
			}
		}
	} else {
		rep, err = experiment.RunAveraged(setup, *schemeName, *repeats)
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		if ring != nil {
			cli.DumpRingErr(manifest, ring)
		}
		_ = rec.Close()
		return err
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
	if cerr := rec.Close(); cerr != nil {
		return cerr
	}
	if *of.Summary {
		_ = manifest.WriteSummary(os.Stderr)
		_ = rec.WriteSummary(os.Stderr)
	}
	if *reportJSON {
		return cli.WriteReportJSON(os.Stdout, rep)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Trace    string
			Scheme   string
			Repeats  int
			Manifest obs.Manifest `json:"manifest"`
			Report   metrics.Report
		}{tr.Name, *schemeName, *repeats, manifest, rep})
	}
	fmt.Printf("trace:       %s (%d nodes, %.0f days, %d contacts)\n",
		tr.Name, tr.Nodes, tr.Duration/86400, len(tr.Contacts))
	fmt.Printf("scheme:      %s\n", *schemeName)
	fmt.Printf("queries:     %d issued, %d satisfied\n", rep.QueriesIssued, rep.QueriesSatisfied)
	fmt.Printf("success:     %.1f%%\n", 100*rep.SuccessRatio)
	fmt.Printf("delay:       mean %.1fh, median %.1fh\n", rep.MeanDelaySec/3600, rep.MedianDelaySec/3600)
	fmt.Printf("copies/item: %.2f (buffer use %.1f%%)\n", rep.MeanCopies, 100*rep.MeanBufferUse)
	fmt.Printf("replaced:    %d moves, %d redundant deliveries\n", rep.ReplacementMoves, rep.RedundantDeliveries)
	fmt.Printf("traffic:     %.1f Gb data, %.2f Gb control\n", rep.DataBits/1e9, rep.ControlBits/1e9)
	fmt.Printf("wall time:   %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}
