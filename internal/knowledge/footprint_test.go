package knowledge

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"dtncache/internal/trace"
)

// midTraceSnapshot builds the preset's seed-1 snapshot halfway through
// the trace, at the preset's default metric horizon.
func midTraceSnapshot(t *testing.T, preset trace.Preset, metricT float64) *Snapshot {
	t.Helper()
	tr, err := trace.GeneratePreset(preset, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(Params{Nodes: tr.Nodes, MetricT: metricT}, tr.Contacts)
	return b.Build(tr.Duration/2, 1)
}

// TestSnapshotWeightBits pins the exact bits of Weight over every pair
// of Infocom05's mid-trace snapshot at nine horizons: the boundary
// cases 0, -1 and +Inf, the metric horizon (the CSR lookup) and five
// off-horizon values (the per-path CDF), from a second to past the
// uniformized cutoff. The snapshot's 1,640 paths run one to five hops,
// 24 of them with a repeated rate (the uniformized branch). The layout
// must return the recorded bits, not merely close values.
func TestSnapshotWeightBits(t *testing.T) {
	const want = uint64(0xcb0af97b7f349fa) // recorded before the compact path layout
	const metricT = 3600
	s := midTraceSnapshot(t, trace.Infocom05, metricT)
	horizons := []float64{0, -1, metricT, math.Inf(1), 1, 600, 3 * 3600, 86400, 1e9}
	sum := fnv.New64a()
	var buf [8]byte
	n := trace.NodeID(s.params.Nodes)
	for _, at := range horizons {
		for a := trace.NodeID(0); a < n; a++ {
			for b := trace.NodeID(0); b < n; b++ {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s.Weight(a, b, at)))
				sum.Write(buf[:])
			}
		}
	}
	if got := sum.Sum64(); got != want {
		t.Errorf("Weight bits digest = %#x, want %#x", got, want)
	}
}

// TestSnapshotFootprint pins the bytes a mid-trace MIT Reality snapshot
// retains in slices below 0.8 MB. A shared provider keeps one snapshot
// per refresh-grid point, so this is what a sweep's live heap grows by
// per grid point. The layout with a Hypoexp header per path, a rates
// slab sized for maxHops per path and a per-source delay row retained
// 1,546,680 bytes here; the compact layout retained 852,633 with the
// rate graph, and retains 767,117 with only each node's degree of it.
func TestSnapshotFootprint(t *testing.T) {
	const limit = 800_000
	s := midTraceSnapshot(t, trace.MITReality, 7*86400)
	if got := s.footprint(); got >= limit {
		t.Errorf("mid-trace MIT Reality snapshot retains %d bytes, want < %d", got, limit)
	}
}
