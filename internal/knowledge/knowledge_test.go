package knowledge_test

import (
	"math"
	"sync"
	"testing"

	"dtncache/internal/engine"
	"dtncache/internal/graph"
	"dtncache/internal/knowledge"
	"dtncache/internal/scheme"
	"dtncache/internal/trace"
)

// seedPipeline recomputes the knowledge artifacts exactly the way the
// pre-refactor code did: a RateEstimator fed the contact prefix, then
// AllPaths and Metrics straight off the rate graph. The snapshot
// equivalence tests compare against this as ground truth.
func seedPipeline(tr *trace.Trace, t, metricT float64, maxHops int) ([]*graph.Paths, []float64) {
	est := graph.NewRateEstimator(tr.Nodes, 0)
	for _, c := range tr.Contacts {
		if c.Start > t {
			break // contacts are sorted by start time
		}
		est.Observe(c.A, c.B)
	}
	g := est.Snapshot(t)
	return g.AllPaths(maxHops), g.Metrics(metricT, maxHops)
}

// TestSnapshotMatchesSeedPipeline is the bit-identity contract: for
// every Table I preset, Builder builds from the contact slice and
// Provider builds from its folded contact counts must reproduce the
// seed pipeline exactly — metrics, horizon weights and off-horizon
// weights alike.
func TestSnapshotMatchesSeedPipeline(t *testing.T) {
	for _, p := range trace.Presets() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			tr, err := trace.GeneratePreset(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			metricT := scheme.DefaultMetricT(tr.Name)
			params := knowledge.Params{Nodes: tr.Nodes, MetricT: metricT}
			builder := knowledge.NewBuilder(params, tr.Contacts)
			provider := knowledge.NewProvider(params, tr.Contacts)
			grid := []float64{0.4 * tr.Duration, 0.7 * tr.Duration, tr.Duration}
			for gi, bt := range grid {
				paths, metrics := seedPipeline(tr, bt, metricT, graph.DefaultMaxHops)
				full := builder.Build(bt, gi+1)
				folded := provider.At(bt) // counts folded on from the previous grid time
				for _, snap := range []*knowledge.Snapshot{full, folded} {
					gotM := snap.Metrics()
					for i, want := range metrics {
						if gotM[i] != want {
							t.Fatalf("t=%.0f v%d: metric[%d] = %v, seed pipeline %v",
								bt, snap.Version(), i, gotM[i], want)
						}
					}
					for i := 0; i < tr.Nodes; i++ {
						for j := 0; j < tr.Nodes; j++ {
							a, b := trace.NodeID(i), trace.NodeID(j)
							want := paths[i].Weight(b, metricT)
							if i == j {
								want = 1 // Env.Weight's self-delivery convention
							}
							if got := snap.MetricWeight(a, b); got != want && i != j {
								t.Fatalf("t=%.0f: MetricWeight(%d,%d) = %v, seed %v", bt, i, j, got, want)
							}
							if got := snap.Weight(a, b, metricT); got != want {
								t.Fatalf("t=%.0f: Weight(%d,%d,T) = %v, seed %v", bt, i, j, got, want)
							}
						}
					}
					// Off-horizon weights evaluate the prepared paths
					// directly; spot-check a diagonal stride, twice, since
					// a repeated read must not drift.
					other := 0.37 * metricT
					for i := 0; i < tr.Nodes; i++ {
						j := (i + 7) % tr.Nodes
						a, b := trace.NodeID(i), trace.NodeID(j)
						want := paths[i].Weight(b, other)
						if i == j {
							want = 1
						}
						if got := snap.Weight(a, b, other); got != want {
							t.Fatalf("t=%.0f: Weight(%d,%d,%.0f) = %v, seed %v", bt, i, j, other, got, want)
						}
						if got := snap.Weight(a, b, other); got != want {
							t.Fatalf("t=%.0f: repeated Weight(%d,%d,%.0f) = %v, seed %v", bt, i, j, other, got, want)
						}
					}
				}
			}
		})
	}
}

// pairContacts builds a tiny hand-written contact list over 6 nodes:
// a triangle component {0,1,2}, a pair component {3,4} and the isolated
// node 5. Contacts are sorted by start time as trace.Validate requires.
func pairContacts() []trace.Contact {
	return []trace.Contact{
		{A: 0, B: 1, Start: 10, End: 12},
		{A: 1, B: 2, Start: 20, End: 22},
		{A: 0, B: 2, Start: 30, End: 33},
		{A: 3, B: 4, Start: 40, End: 45},
		{A: 3, B: 4, Start: 50.5, End: 52},
	}
}

// TestProviderCachesAndVersions pins the Provider contract: a version-0
// empty snapshot, cache hits returning the identical value, and
// monotonically increasing versions.
func TestProviderCachesAndVersions(t *testing.T) {
	pr := knowledge.NewProvider(knowledge.Params{Nodes: 6, MetricT: 100}, pairContacts())
	e := pr.Empty()
	if e.Version() != 0 || e.BuiltAt() != 0 {
		t.Fatalf("empty snapshot: version %d at %v", e.Version(), e.BuiltAt())
	}
	if w := e.Weight(0, 0, 100); w != 1 {
		t.Errorf("empty self weight = %v, want 1", w)
	}
	if w := e.Weight(0, 1, 100); w != 0 {
		t.Errorf("empty cross weight = %v, want 0", w)
	}
	s1 := pr.At(50)
	if s1.Version() != 1 {
		t.Fatalf("first snapshot version %d, want 1", s1.Version())
	}
	if again := pr.At(50); again != s1 {
		t.Fatal("cache miss on a repeated At(t)")
	}
	s2 := pr.At(60)
	if s2.Version() != 2 {
		t.Fatalf("second snapshot version %d, want 2", s2.Version())
	}
	// Degrees of the rate graph at t=60: the triangle, the pair, and
	// the isolated node 5.
	for n, want := range []int{2, 2, 2, 1, 1, 0} {
		if d := s2.Degree(trace.NodeID(n)); d != want {
			t.Errorf("Degree(%d) = %d, want %d", n, d, want)
		}
	}
	// Out-of-range lookups are defined, not panics.
	if w := s2.Weight(-1, 0, 100); w != 0 {
		t.Errorf("out-of-range Weight = %v, want 0", w)
	}
	if w := s2.MetricWeight(0, trace.NodeID(99)); w != 0 {
		t.Errorf("out-of-range MetricWeight = %v, want 0", w)
	}
}

// TestSnapshotSharingConcurrent hammers one shared Provider, built as
// engine.SharedKnowledge builds it, from many goroutines walking the
// same refresh grid — the cross-scheme sharing pattern of
// experiment.RunComparison — and checks every consumer
// observes identical knowledge. Run under -race (scripts/check.sh) this
// also proves the parallel build fan-out and the off-horizon Weight
// reads of the prepared paths are data-race free.
func TestSnapshotSharingConcurrent(t *testing.T) {
	tr, err := trace.GeneratePreset(trace.Infocom05, 1)
	if err != nil {
		t.Fatal(err)
	}
	metricT := scheme.DefaultMetricT(tr.Name)
	pr := engine.SharedKnowledge(tr, metricT)
	grid := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	const consumers = 8
	sums := make([]uint64, consumers)
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var sum float64
			for _, f := range grid {
				snap := pr.At(f * tr.Duration)
				for i := 0; i < tr.Nodes; i++ {
					j := (i + c + 1) % tr.Nodes
					a, b := trace.NodeID(i), trace.NodeID(j)
					sum += snap.MetricWeight(a, b)
					sum += snap.Weight(a, b, 0.41*metricT) // off-horizon Paths read
					sum += snap.Metrics()[i]
				}
			}
			sums[c] = math.Float64bits(sum)
		}(c)
	}
	wg.Wait()
	// Re-run consumer 0's walk serially and require bitwise agreement —
	// concurrency must not change what any consumer reads.
	var want float64
	for _, f := range grid {
		snap := pr.At(f * tr.Duration)
		for i := 0; i < tr.Nodes; i++ {
			j := (i + 1) % tr.Nodes
			a, b := trace.NodeID(i), trace.NodeID(j)
			want += snap.MetricWeight(a, b)
			want += snap.Weight(a, b, 0.41*metricT)
			want += snap.Metrics()[i]
		}
	}
	if sums[0] != math.Float64bits(want) {
		t.Errorf("concurrent consumer read %x, serial replay %x", sums[0], math.Float64bits(want))
	}
}
