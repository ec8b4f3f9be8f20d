package experiment

import (
	"sync"
	"testing"

	"dtncache/internal/engine"
	"dtncache/internal/trace"
)

var (
	comparisonOnce  sync.Once
	comparisonTrace *trace.Trace
)

func comparisonSetup(b *testing.B) engine.Config {
	b.Helper()
	comparisonOnce.Do(func() {
		// A knowledge-bound cell: a large sparse population (vehicular /
		// rural DTN regime) where the contact-rate → paths → metric
		// pipeline, not event replay, dominates a run. The Table I
		// conference traces are the opposite regime (small n, dense
		// contacts), so they mostly measure the simulator.
		tr, _, err := trace.Generate(trace.GenConfig{
			Name:           "bench-sparse",
			Nodes:          200,
			DurationSec:    30 * 86400,
			GranularitySec: 60,
			TargetContacts: 10000,
			ActivityAlpha:  1.3,
			ActivityMax:    25,
			EdgeProb:       0.05,
			PairSkewAlpha:  0.6,
			PairSkewMax:    500,
			Communities:    8,
			IntraBoost:     8,
			Seed:           1,
		})
		if err != nil {
			b.Fatal(err)
		}
		comparisonTrace = tr
	})
	return engine.Config{Trace: comparisonTrace, Seed: 1, MetricT: 3 * 86400}
}

var (
	replayOnce      sync.Once
	replayTrace     *trace.Trace
	replaySetup     engine.Config
	replayBenchErr  error
	replayPrewarmed bool
)

// replayBoundSetup builds a replay-bound cell: a dense conference-style
// trace (small n, many contacts — the Table I regime) with the
// knowledge provider prebuilt and shared, so per-iteration cost is the
// trace replay itself: the event loop, per-node message stores, and
// buffers.
func replayBoundSetup(b *testing.B) engine.Config {
	b.Helper()
	replayOnce.Do(func() {
		tr, _, err := trace.Generate(trace.GenConfig{
			Name:           "bench-dense",
			Nodes:          60,
			DurationSec:    14 * 86400,
			GranularitySec: 30,
			TargetContacts: 60000,
			ActivityAlpha:  1.2,
			ActivityMax:    15,
			EdgeProb:       0.3,
			Communities:    4,
			IntraBoost:     4,
			Seed:           1,
		})
		if err != nil {
			replayBenchErr = err
			return
		}
		replayTrace = tr
		replaySetup = engine.Config{
			Trace:       tr,
			Seed:        1,
			MetricT:     86400,
			AvgLifetime: 2 * 86400,
			Knowledge:   SharedKnowledge(tr, 86400),
		}
	})
	if replayBenchErr != nil {
		b.Fatal(replayBenchErr)
	}
	if !replayPrewarmed {
		// One untimed run fills the shared provider's snapshot cache, so
		// measured iterations never pay for knowledge building.
		if _, err := Run(replaySetup, engine.SchemeIntentional); err != nil {
			b.Fatal(err)
		}
		replayPrewarmed = true
	}
	return replaySetup
}

// BenchmarkReplaySingleScheme is the headline replay benchmark: one
// Intentional-scheme run over a dense trace with all knowledge
// prebuilt. Its speedup against BENCH_pr3_baseline.json is the
// PR 3 acceptance number; events/sec is the engine throughput.
func BenchmarkReplaySingleScheme(b *testing.B) {
	setup := replayBoundSetup(b)
	setup.Scheme = engine.SchemeIntentional
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		eng, err := engine.New(setup)
		if err != nil {
			b.Fatal(err)
		}
		env := eng.Env()
		rep := env.Run()
		if rep.QueriesIssued == 0 {
			b.Fatal("replay produced no queries")
		}
		events += env.Sim.Processed()
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkRunComparison measures a full multi-scheme comparison cell —
// all five Fig. 10 schemes on MIT Reality — with the knowledge pipeline
// built once and shared across schemes via the Provider.
func BenchmarkRunComparison(b *testing.B) {
	setup := comparisonSetup(b)
	names := engine.SchemeNames()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunComparison(setup, names); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunComparisonIsolated is the seed behavior for the same
// cell: identical concurrency (forEachCell), but every scheme builds
// its own knowledge pipeline, so the only difference from
// BenchmarkRunComparison is the sharing.
func BenchmarkRunComparisonIsolated(b *testing.B) {
	setup := comparisonSetup(b)
	names := engine.SchemeNames()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := forEachCell(len(names), func(j int) error {
			_, err := Run(setup, names[j])
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}
