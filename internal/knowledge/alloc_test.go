package knowledge_test

import (
	"testing"

	"dtncache/internal/knowledge"
	"dtncache/internal/trace"
)

// TestSnapshotWeightZeroAlloc pins off-horizon Snapshot.Weight — the
// response-probability read of Sec. V-C, hit once per broadcast query
// delivery — at zero allocations on both CDF branches: a two-hop path
// with distinct hop rates (closed form of Eq. 2) and one with a
// repeated rate (uniformized chain).
//
//dtn:allocfree the measured closures may not allocate
func TestSnapshotWeightZeroAlloc(t *testing.T) {
	// Chain 0-1-2 meets once per hop (equal rates); chain 3-4-5 meets
	// once on the first hop and twice on the second (distinct rates).
	contacts := []trace.Contact{
		{A: 0, B: 1, Start: 10, End: 12},
		{A: 1, B: 2, Start: 20, End: 22},
		{A: 3, B: 4, Start: 30, End: 32},
		{A: 4, B: 5, Start: 40, End: 42},
		{A: 4, B: 5, Start: 50, End: 52},
	}
	const metricT = 100
	snap := knowledge.NewBuilder(knowledge.Params{Nodes: 6, MetricT: metricT}, contacts).Build(60, 1)
	cases := []struct {
		name     string
		src, dst trace.NodeID
		repeated bool
	}{
		{"closed form", 3, 5, false},
		{"repeated rate", 0, 2, true},
	}
	for _, tc := range cases {
		rates := snap.Paths(tc.src).HopRates(tc.dst)
		if len(rates) != 2 || (rates[0] == rates[1]) != tc.repeated {
			t.Fatalf("%s: fixture path %d->%d has hop rates %v", tc.name, tc.src, tc.dst, rates)
		}
		var w float64
		allocs := testing.AllocsPerRun(200, func() {
			w = snap.Weight(tc.src, tc.dst, 0.5*metricT)
		})
		if allocs != 0 {
			t.Errorf("%s: off-horizon Weight allocates %.1f/op, want 0", tc.name, allocs)
		}
		if w <= 0 || w >= 1 {
			t.Errorf("%s: Weight = %v, want a probability strictly inside (0, 1)", tc.name, w)
		}
	}
}
