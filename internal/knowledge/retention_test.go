package knowledge_test

import (
	"math"
	"testing"

	"dtncache/internal/engine"
	"dtncache/internal/knowledge"
	"dtncache/internal/obs"
	"dtncache/internal/scheme"
	"dtncache/internal/trace"
)

// refreshGrid returns the refresh times a scheme environment walks over
// tr with the default configuration, accumulated as sim.Every
// schedules them.
func refreshGrid(tr *trace.Trace) []float64 {
	sc := scheme.DefaultConfig(tr.Duration)
	var grid []float64
	for at := sc.WarmupEnd; at <= tr.Duration; at += sc.RefreshSec {
		grid = append(grid, at)
	}
	return grid
}

func retentionTrace(t *testing.T) (*trace.Trace, knowledge.Params, func() (trace.ContactSource, error)) {
	t.Helper()
	tr, err := trace.GeneratePreset(trace.Infocom05, 1)
	if err != nil {
		t.Fatal(err)
	}
	params := knowledge.Params{Nodes: tr.Nodes, MetricT: scheme.DefaultMetricT(tr.Name)}
	open := func() (trace.ContactSource, error) { return trace.NewSliceSource(tr.Contacts), nil }
	return tr, params, open
}

// snapshotBits folds a snapshot's metrics, metric weights and
// off-horizon weights into exact bit patterns.
func snapshotBits(s *knowledge.Snapshot, metricT float64) []uint64 {
	var bits []uint64
	for i, m := range s.Metrics() {
		a, b := trace.NodeID(i), trace.NodeID((i+1)%len(s.Metrics()))
		bits = append(bits, math.Float64bits(m),
			math.Float64bits(s.MetricWeight(a, b)),
			math.Float64bits(s.Weight(a, b, 0.41*metricT)))
	}
	return bits
}

// TestPrivateProviderKeepsNewest pins private retention: walked over a
// run's refresh grid, a private provider holds one snapshot after every
// At and builds each grid point once.
func TestPrivateProviderKeepsNewest(t *testing.T) {
	tr, params, open := retentionTrace(t)
	grid := refreshGrid(tr)
	if len(grid) != 51 {
		t.Fatalf("default refresh grid has %d points, want 51", len(grid))
	}
	pr := knowledge.NewPrivateStreamProvider(params, open)
	rec := obs.NewRecorder(nil)
	pr.SetRecorder(rec)
	reg := rec.Registry()
	for _, at := range grid {
		pr.At(at)
		if n := reg.Gauge("knowledge", "cached_snapshots").Value(); n != 1 {
			t.Fatalf("t=%.0f: %d snapshots cached, want 1", at, n)
		}
	}
	if b := reg.Counter("knowledge", "builds").Value(); b != uint64(len(grid)) {
		t.Errorf("%d builds over a %d-point grid", b, len(grid))
	}
	if h := reg.Counter("knowledge", "cache_hits").Value(); h != 0 {
		t.Errorf("%d cache hits on a forward walk, want 0", h)
	}
}

// TestPrivateProviderRebuildsEvicted checks that an evicted time is
// rebuilt bit-identically to a fresh provider's snapshot, and that the
// rebuild leaves the newest snapshot cached.
func TestPrivateProviderRebuildsEvicted(t *testing.T) {
	tr, params, open := retentionTrace(t)
	grid := refreshGrid(tr)
	pr := knowledge.NewPrivateStreamProvider(params, open)
	rec := obs.NewRecorder(nil)
	pr.SetRecorder(rec)
	for _, at := range grid {
		pr.At(at)
	}
	t1, last := grid[1], grid[len(grid)-1]
	got := snapshotBits(pr.At(t1), params.MetricT)
	want := snapshotBits(knowledge.NewPrivateStreamProvider(params, open).At(t1), params.MetricT)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rebuilt At(%.0f) word %d = %x, fresh provider %x", t1, i, got[i], want[i])
		}
	}
	reg := rec.Registry()
	if b := reg.Counter("knowledge", "builds").Value(); b != uint64(len(grid)+1) {
		t.Errorf("%d builds, want the grid's %d plus one rebuild", b, len(grid))
	}
	pr.At(last)
	if h := reg.Counter("knowledge", "cache_hits").Value(); h != 1 {
		t.Errorf("At(%.0f) after the rebuild: %d cache hits, want 1 (newest kept)", last, h)
	}
	if n := reg.Gauge("knowledge", "cached_snapshots").Value(); n != 1 {
		t.Errorf("%d snapshots cached, want 1", n)
	}
}

// TestSharedProviderKeepsGrid pins shared retention: two consumers that
// walk the grid in turn, as sweep cells on few cores do, build each
// point once and the second reads every point from the cache.
func TestSharedProviderKeepsGrid(t *testing.T) {
	tr, _, _ := retentionTrace(t)
	grid := refreshGrid(tr)
	pr := engine.SharedKnowledge(tr, 0)
	rec := obs.NewRecorder(nil)
	pr.SetRecorder(rec)
	for range 2 {
		for _, at := range grid {
			pr.At(at)
		}
	}
	reg := rec.Registry()
	if b := reg.Counter("knowledge", "builds").Value(); b != uint64(len(grid)) {
		t.Errorf("%d builds, want one per grid point (%d)", b, len(grid))
	}
	if h := reg.Counter("knowledge", "cache_hits").Value(); h != uint64(len(grid)) {
		t.Errorf("%d cache hits, want %d", h, len(grid))
	}
	if n := reg.Gauge("knowledge", "cached_snapshots").Value(); n != int64(len(grid)) {
		t.Errorf("%d snapshots cached, want %d", n, len(grid))
	}
}

// TestSharedGridFootprint pins what a sweep's shared provider retains:
// the whole default refresh grid of seed-1 MIT Reality snapshots, 51
// of them, stays below 17 MB in slices. With the Eq. (2) coefficients
// and every path's hop rates stored per path it held 39.2 MB; the path
// trees hold 15.2 MB.
func TestSharedGridFootprint(t *testing.T) {
	const limit = 17_000_000
	tr, err := trace.GeneratePreset(trace.MITReality, 1)
	if err != nil {
		t.Fatal(err)
	}
	grid := refreshGrid(tr)
	if len(grid) != 51 {
		t.Fatalf("default refresh grid has %d points, want 51", len(grid))
	}
	pr := engine.SharedKnowledge(tr, 0)
	total := 0
	for _, at := range grid {
		total += knowledge.Footprint(pr.At(at))
	}
	if total >= limit {
		t.Errorf("shared MIT Reality grid retains %d bytes over %d snapshots, want < %d", total, len(grid), limit)
	}
}
