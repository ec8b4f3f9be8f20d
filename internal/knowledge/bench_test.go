package knowledge_test

import (
	"sync"
	"testing"

	"dtncache/internal/engine"
	"dtncache/internal/knowledge"
	"dtncache/internal/trace"
)

// The refresh benchmark replays a fine-grained knowledge-refresh grid —
// a 3-hour RefreshSec over the last three days of the MIT Reality trace
// (the scheme's RefreshSec is a free parameter; duration/100 is only
// its default) — building every snapshot of it.
const benchSteps = 24

var (
	benchOnce   sync.Once
	benchTrace  *trace.Trace
	benchParams knowledge.Params
)

func benchSetup(b *testing.B) (*trace.Trace, knowledge.Params) {
	b.Helper()
	benchOnce.Do(func() {
		tr, err := trace.GeneratePreset(trace.MITReality, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchTrace = tr
		benchParams = knowledge.Params{
			Nodes:   tr.Nodes,
			MetricT: engine.DefaultMetricT(tr.Name),
		}
	})
	return benchTrace, benchParams
}

func benchGrid(tr *trace.Trace) []float64 {
	grid := make([]float64, benchSteps)
	step := 3 * 3600.0
	start := tr.Duration - float64(benchSteps-1)*step
	for i := range grid {
		grid[i] = start + float64(i)*step
	}
	return grid
}

// BenchmarkAllPathsFull is the seed behavior: every refresh recomputes
// rates, paths, the weight matrix and the metrics from scratch.
func BenchmarkAllPathsFull(b *testing.B) {
	tr, params := benchSetup(b)
	grid := benchGrid(tr)
	builder := knowledge.NewBuilder(params, tr.Contacts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v, t := range grid {
			builder.Build(t, v+1)
		}
	}
}

// BenchmarkAllPathsCity measures the snapshot pipeline on the
// city-scale preset shape: 400 nodes in isolated power-law districts
// (InterProb = 0), where almost every source-destination pair is
// unreachable and a dense weight matrix is nearly all zeros. The
// bytes/op of this benchmark is the headline number for the CSR
// snapshot layout.
func BenchmarkAllPathsCity(b *testing.B) {
	cfg := trace.CityDefaults(400, 60000)
	cfg.DurationSec = 2 * 86400
	cfg.InterProb = 0
	tr, err := trace.GenerateCity(cfg)
	if err != nil {
		b.Fatal(err)
	}
	params := knowledge.Params{Nodes: tr.Nodes, MetricT: 86400}
	builder := knowledge.NewBuilder(params, tr.Contacts)
	grid := make([]float64, 6)
	for i := range grid {
		grid[i] = tr.Duration/2 + float64(i)*tr.Duration/12
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v, t := range grid {
			builder.Build(t, v+1)
		}
	}
}
