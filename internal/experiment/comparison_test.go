package experiment

import (
	"testing"

	"dtncache/internal/engine"
	"dtncache/internal/scheme"
	"dtncache/internal/trace"
)

// TestRunComparisonMatchesRun is the sharing contract of the knowledge
// layer: running every scheme concurrently against one shared Provider
// must produce reports bit-identical to isolated Runs that each build
// their own knowledge.
func TestRunComparisonMatchesRun(t *testing.T) {
	tr := tinyTrace(t)
	setup := engine.Config{
		Trace:       tr,
		AvgLifetime: 6 * 3600,
		K:           2,
		Seed:        3,
	}
	names := engine.SchemeNames()
	shared, err := RunComparison(setup, names)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		isolated, err := Run(setup, name)
		if err != nil {
			t.Fatalf("%s isolated run: %v", name, err)
		}
		if a, b := reportString(shared[i]), reportString(isolated); a != b {
			t.Errorf("%s: shared-knowledge report diverged from isolated run:\n%s\n%s", name, a, b)
		}
	}
}

// TestTableIPresetComparisonIdentical pins the pooled core's behavior
// on the calibrated Table I preset traces: for every preset, running
// the scheme comparison against one shared knowledge provider must
// produce reports byte-identical to isolated runs. This is the
// cross-preset equivalence check behind the zero-allocation refactor —
// the pooled event loop and slice-backed node stores must not perturb
// any preset's results. scripts/check.sh runs this under -race, which
// additionally exercises the pooled per-node state across the
// comparison's concurrent scheme workers.
func TestTableIPresetComparisonIdentical(t *testing.T) {
	names := []string{engine.SchemeIntentional, engine.SchemeCacheData}
	for _, p := range trace.Presets() {
		t.Run(string(p), func(t *testing.T) {
			tr, err := trace.GeneratePreset(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Cap the path-weight horizon: the long-trace defaults (1wk
			// MIT Reality, 3d UCSD) put almost all of the wall time into
			// hypoexponential path weights inside the knowledge build,
			// which is orthogonal to the store-equivalence property under
			// test here.
			metricT := scheme.DefaultMetricT(string(p))
			if metricT > 6*3600 {
				metricT = 6 * 3600
			}
			setup := engine.Config{
				Trace:       tr,
				MetricT:     metricT,
				AvgLifetime: 24 * 3600,
				K:           2,
				Seed:        5,
			}
			shared, err := RunComparison(setup, names)
			if err != nil {
				t.Fatal(err)
			}
			for i, name := range names {
				isolated, err := Run(setup, name)
				if err != nil {
					t.Fatalf("%s isolated run: %v", name, err)
				}
				if a, b := reportString(shared[i]), reportString(isolated); a != b {
					t.Errorf("%s on %s: shared-knowledge report diverged from isolated run:\n%s\n%s",
						name, p, a, b)
				}
			}
		})
	}
}

// TestRunComparisonReusesExplicitProvider checks that a caller-supplied
// provider is honored (the sweep-cell sharing pattern) and still
// matches isolated runs.
func TestRunComparisonReusesExplicitProvider(t *testing.T) {
	tr := tinyTrace(t)
	setup := engine.Config{
		Trace:       tr,
		AvgLifetime: 6 * 3600,
		K:           2,
		Seed:        3,
		Knowledge:   SharedKnowledge(tr, 0),
	}
	names := []string{engine.SchemeIntentional, engine.SchemeBundleCache}
	shared, err := RunComparison(setup, names)
	if err != nil {
		t.Fatal(err)
	}
	isolated := setup
	isolated.Knowledge = nil
	for i, name := range names {
		rep, err := Run(isolated, name)
		if err != nil {
			t.Fatalf("%s isolated run: %v", name, err)
		}
		if a, b := reportString(shared[i]), reportString(rep); a != b {
			t.Errorf("%s: explicit-provider report diverged from isolated run:\n%s\n%s", name, a, b)
		}
	}
}
