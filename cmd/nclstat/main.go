// Command nclstat computes the NCL selection metric C_i (Eq. 3) for
// every node of a trace and prints the distribution — the analysis
// behind the paper's Fig. 4 — plus the top-K central nodes that the
// intentional caching scheme would select.
//
// Usage:
//
//	nclstat -trace Infocom06 -k 5
//	nclstat -tracefile contacts.txt -T 86400
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"dtncache/internal/experiment"
	"dtncache/internal/graph"
	"dtncache/internal/knowledge"
	"dtncache/internal/mathx"
	"dtncache/internal/scheme"
	"dtncache/internal/trace"
)

func main() {
	err := run(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return // usage already printed; --help is a successful exit
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nclstat:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nclstat", flag.ContinueOnError)
	var (
		preset    = fs.String("trace", "Infocom06", "trace preset")
		traceFile = fs.String("tracefile", "", "read the trace from this file")
		horizon   = fs.Float64("T", 0, "metric horizon T in seconds (0 = paper default for the trace)")
		k         = fs.Int("k", 8, "show the top-K selected central nodes")
		seed      = fs.Int64("seed", 1, "random seed for synthetic traces")
		fig4      = fs.Bool("fig4", false, "print the full Fig. 4 table for all presets")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *fig4 {
		t, err := experiment.Fig4(experiment.FigureOptions{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Println(t.Format())
		return nil
	}

	var tr *trace.Trace
	var err error
	if *traceFile != "" {
		f, ferr := os.Open(*traceFile)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		tr, err = trace.Read(f)
	} else {
		tr, err = trace.GeneratePreset(trace.Preset(*preset), *seed)
	}
	if err != nil {
		return err
	}

	t := *horizon
	if t == 0 {
		t = scheme.DefaultMetricT(tr.Name)
	}
	// Whole-trace knowledge snapshot over the raw contact list, the
	// Sec. IV-B offline analysis convention.
	snap := knowledge.NewProvider(knowledge.Params{
		Nodes:   tr.Nodes,
		MetricT: t,
	}, tr.Contacts).At(tr.Duration)
	metricsVals := snap.Metrics()
	sorted := append([]float64(nil), metricsVals...)
	sort.Float64s(sorted)
	sum := mathx.Summarize(sorted)
	fmt.Printf("trace %s: %d nodes, T = %.0fs (knowledge snapshot v%d at t=%.0fs)\n",
		tr.Name, tr.Nodes, t, snap.Version(), snap.BuiltAt())
	fmt.Printf("C_i distribution: min %.4f, median %.4f, p90 %.4f, max %.4f (skew max/median %.1fx)\n",
		sum.Min, sum.Median, sum.P90, sum.Max, safeRatio(sum.Max, sum.Median))

	ncls := graph.SelectNCLs(metricsVals, *k)
	fmt.Printf("top-%d central nodes:\n", *k)
	for rank, n := range ncls {
		fmt.Printf("  %2d. node %3d  C = %.4f\n", rank+1, n, metricsVals[n])
	}
	return nil
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
