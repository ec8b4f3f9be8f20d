package scheme

import (
	"testing"

	"dtncache/internal/metrics"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

func TestEpidemicEndToEnd(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr, 21000, 39000, 22000, 38000)
	env, err := NewEnv(testConfig(tr), w, NewEpidemic())
	if err != nil {
		t.Fatal(err)
	}
	rep := env.Run()
	if rep.QueriesSatisfied != 1 {
		t.Fatalf("epidemic failed the line scenario: %+v", rep)
	}
}

func TestEpidemicBeatsNoCacheDelay(t *testing.T) {
	// Flooding is a delay lower bound (given bandwidth): on a small
	// trace it must be at least as successful as NoCache.
	tr, err := trace.GeneratePreset(trace.Infocom05, 5)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(workload.Config{
		Nodes: tr.Nodes, GenProb: 0.2, AvgLifetime: 3 * 3600,
		AvgSizeBits: 20e6, ZipfExponent: 1,
		Start: tr.Duration / 2, End: tr.Duration, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(s Scheme) metrics.Report {
		cfg := DefaultConfig(tr.Duration)
		cfg.Trace = tr
		cfg.MetricT = 3600
		cfg.K = 3
		env, err := NewEnv(cfg, w, s)
		if err != nil {
			t.Fatal(err)
		}
		return env.Run()
	}
	epi := run(NewEpidemic())
	noc := run(NewNoCache())
	if epi.SuccessRatio < noc.SuccessRatio {
		t.Errorf("epidemic %.3f below NoCache %.3f", epi.SuccessRatio, noc.SuccessRatio)
	}
	// Flooding must move far more data.
	if epi.DataBits <= noc.DataBits {
		t.Errorf("epidemic moved %v bits <= NoCache %v", epi.DataBits, noc.DataBits)
	}
}
