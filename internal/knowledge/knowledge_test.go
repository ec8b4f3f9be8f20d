package knowledge_test

import (
	"math"
	"sync"
	"testing"

	"dtncache/internal/engine"
	"dtncache/internal/graph"
	"dtncache/internal/knowledge"
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
// every Table I preset, full builds and incremental epsilon = 0 builds
// (the default Params) must reproduce the seed pipeline exactly —
// metrics, horizon weights and off-horizon weights alike.
func TestSnapshotMatchesSeedPipeline(t *testing.T) {
	for _, p := range trace.Presets() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			tr, err := trace.GeneratePreset(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			metricT := engine.DefaultMetricT(tr.Name)
			params := knowledge.Params{Nodes: tr.Nodes, MetricT: metricT}
			builder := knowledge.NewBuilder(params, tr.Contacts)
			provider := knowledge.NewProvider(params, tr.Contacts)
			grid := []float64{0.4 * tr.Duration, 0.7 * tr.Duration, tr.Duration}
			for gi, bt := range grid {
				paths, metrics := seedPipeline(tr, bt, metricT, graph.DefaultMaxHops)
				full := builder.Build(bt, nil, gi+1)
				incr := provider.At(bt) // chained off the previous grid time
				if incr.ReusedSources() > 0 && gi > 0 {
					t.Logf("t=%.0f: %d sources reused incrementally", bt, incr.ReusedSources())
				}
				for _, snap := range []*knowledge.Snapshot{full, incr} {
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

// TestIncrementalExactReuse checks epsilon = 0 dirtiness propagation:
// advancing the build time rescales every existing edge rate (count /
// elapsed), so both connected components are dirty; only the edgeless
// node can be reused, and the result must still equal a full rebuild
// bit-for-bit.
func TestIncrementalExactReuse(t *testing.T) {
	params := knowledge.Params{Nodes: 6, MetricT: 100}
	b := knowledge.NewBuilder(params, pairContacts())
	s1 := b.Build(50, nil, 1)
	if s1.ReusedSources() != 0 {
		t.Fatalf("full build reused %d sources", s1.ReusedSources())
	}
	s2 := b.Build(60, s1, 2)
	if s2.ReusedSources() != 1 { // only the isolated node 5
		t.Fatalf("exact incremental reused %d sources, want 1", s2.ReusedSources())
	}
	full := b.Build(60, nil, 2)
	wantM, gotM := full.Metrics(), s2.Metrics()
	for i := range wantM {
		if gotM[i] != wantM[i] {
			t.Fatalf("metric[%d]: incremental %v, full %v", i, gotM[i], wantM[i])
		}
	}
	for i := 0; i < params.Nodes; i++ {
		for j := 0; j < params.Nodes; j++ {
			a, bb := trace.NodeID(i), trace.NodeID(j)
			if s2.MetricWeight(a, bb) != full.MetricWeight(a, bb) {
				t.Fatalf("MetricWeight(%d,%d) diverged from full rebuild", i, j)
			}
		}
	}
}

// TestIncrementalEpsilonReuse checks the approximate mode: with a 5%
// tolerance, a small elapsed-time rescale leaves the triangle component
// stale (reused), while the {3,4} component — which gained a contact,
// roughly doubling its rate — is recomputed.
func TestIncrementalEpsilonReuse(t *testing.T) {
	params := knowledge.Params{Nodes: 6, MetricT: 100, Epsilon: 0.05}
	b := knowledge.NewBuilder(params, pairContacts())
	s1 := b.Build(50, nil, 1)
	s2 := b.Build(51, s1, 2)
	// Nodes 0,1,2 (rates moved ~2% < 5%) and 5 are reused; 3,4 are dirty.
	if s2.ReusedSources() != 4 {
		t.Fatalf("epsilon incremental reused %d sources, want 4", s2.ReusedSources())
	}
	// The stale component keeps the base's artifacts verbatim: metric
	// and weight row.
	m1, m2 := s1.Metrics(), s2.Metrics()
	for _, i := range []int{0, 1, 2, 5} {
		if m2[i] != m1[i] {
			t.Errorf("metric[%d] changed on a reused source: %v -> %v", i, m1[i], m2[i])
		}
		for j := 0; j < params.Nodes; j++ {
			a, bb := trace.NodeID(i), trace.NodeID(j)
			if w1, w2 := s1.MetricWeight(a, bb), s2.MetricWeight(a, bb); w2 != w1 {
				t.Errorf("MetricWeight(%d,%d) changed on a reused source: %v -> %v", i, j, w1, w2)
			}
		}
	}
	if s2.WeightNNZ() != s1.WeightNNZ() {
		t.Errorf("WeightNNZ: %d -> %d", s1.WeightNNZ(), s2.WeightNNZ())
	}
	// The dirty component really was recomputed against the new rates.
	fullM := b.Build(51, nil, 2).Metrics()
	for _, i := range []int{3, 4} {
		if m2[i] != fullM[i] {
			t.Errorf("metric[%d]: dirty source %v, full rebuild %v", i, m2[i], fullM[i])
		}
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
	if s2.ReusedSources() == 0 {
		t.Error("At(60) should have built incrementally against At(50)")
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
	metricT := engine.DefaultMetricT(tr.Name)
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

// TestParamsNormalized pins the Params sharing key: defaults are filled
// so equivalent configurations compare equal with ==.
func TestParamsNormalized(t *testing.T) {
	n := knowledge.Params{Nodes: 5, MetricT: 10}.Normalized()
	if n.MaxHops != graph.DefaultMaxHops {
		t.Errorf("MaxHops default = %d, want %d", n.MaxHops, graph.DefaultMaxHops)
	}
	explicit := knowledge.Params{Nodes: 5, MetricT: 10, MaxHops: graph.DefaultMaxHops}.Normalized()
	if n != explicit {
		t.Error("default and explicit MaxHops params should normalize equal")
	}
	if neg := (knowledge.Params{Nodes: 5, MetricT: 10, Epsilon: -1}).Normalized(); neg.Epsilon != 0 {
		t.Errorf("negative Epsilon normalized to %v, want 0", neg.Epsilon)
	}
}
