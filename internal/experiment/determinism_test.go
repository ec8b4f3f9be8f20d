package experiment

import (
	"fmt"
	"testing"

	"dtncache/internal/engine"
	"dtncache/internal/metrics"
	"dtncache/internal/trace"
)

// tinyTrace builds a small synthetic trace so the double-run checks
// stay fast.
func tinyTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, _, err := trace.Generate(trace.GenConfig{
		Name:           "tiny",
		Nodes:          12,
		DurationSec:    2 * 86400,
		GranularitySec: 120,
		TargetContacts: 800,
		ActivityAlpha:  1.5,
		ActivityMax:    10,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// reportString renders every field of a report; %#v prints floats with
// round-trip precision, so equal strings mean bit-identical reports.
func reportString(rep metrics.Report) string {
	return fmt.Sprintf("%#v", rep)
}

// TestRunIsDeterministic is the determinism regression test: the same
// config with the same seed must produce byte-identical metrics output,
// which is the invariant the dtnlint analyzers guard statically.
func TestRunIsDeterministic(t *testing.T) {
	tr := tinyTrace(t)
	setup := engine.Config{
		Trace:       tr,
		AvgLifetime: 6 * 3600,
		K:           2,
		Seed:        3,
	}
	for _, name := range []string{engine.SchemeIntentional, engine.SchemeCacheData} {
		first, err := Run(setup, name)
		if err != nil {
			t.Fatalf("%s run 1: %v", name, err)
		}
		second, err := Run(setup, name)
		if err != nil {
			t.Fatalf("%s run 2: %v", name, err)
		}
		if a, b := reportString(first), reportString(second); a != b {
			t.Errorf("%s: two runs with the same seed diverged:\n%s\n%s", name, a, b)
		}
	}
}

// TestParallelSweepIsDeterministic runs the same small sweep through
// the parallel dispatcher twice and requires byte-identical results:
// cell results must depend only on the cell index, never on worker
// scheduling. Running under -race (scripts/check.sh) additionally
// checks the dispatcher itself.
func TestParallelSweepIsDeterministic(t *testing.T) {
	tr := tinyTrace(t)
	cells := []struct {
		name string
		seed int64
	}{
		{engine.SchemeIntentional, 3},
		{engine.SchemeNoCache, 3},
		{engine.SchemeIntentional, 4},
		{engine.SchemeNoCache, 4},
	}
	sweep := func() (string, error) {
		out := make([]string, len(cells))
		err := forEachCell(len(cells), func(i int) error {
			rep, err := Run(engine.Config{
				Trace:       tr,
				AvgLifetime: 6 * 3600,
				K:           2,
				Seed:        cells[i].seed,
			}, cells[i].name)
			if err != nil {
				return err
			}
			out[i] = reportString(rep)
			return nil
		})
		if err != nil {
			return "", err
		}
		all := ""
		for i, s := range out {
			all += fmt.Sprintf("cell %d (%s seed %d): %s\n", i, cells[i].name, cells[i].seed, s)
		}
		return all, nil
	}
	first, err := sweep()
	if err != nil {
		t.Fatal(err)
	}
	second, err := sweep()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("parallel sweep diverged between runs:\n--- run 1\n%s--- run 2\n%s", first, second)
	}
}
