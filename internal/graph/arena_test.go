package graph

import (
	"math"
	"testing"

	"dtncache/internal/mathx"
	"dtncache/internal/trace"
)

// TestPathsIntoAllocsPerSource pins the path-tree layout: with a warm
// scratch, PathsInto makes at most four allocations per source (the
// Paths, its per-node path kinds, its state rates, and one slab for the
// per-node leaves and per-state parents) however many destinations the
// source reaches, and sizes every slice exactly. The graph is a tree,
// so each reachable node's path ends in a state of its own and shares
// its parent's prefix: one state per reachable node.
func TestPathsIntoAllocsPerSource(t *testing.T) {
	rng := mathx.NewRand(3)
	for _, n := range []int{2, 12, 300} {
		g := NewGraph(n)
		for v := 1; v < n; v++ {
			// A tree of random fan-out: paths of one to several hops,
			// mostly distinct rates with some repeats.
			g.SetRate(trace.NodeID(rng.Intn(v)), trace.NodeID(v), float64(1+rng.Intn(50))/3600)
		}
		g.BuildAdjacency()
		scratch := &PathScratch{}
		p := g.PathsInto(0, DefaultMaxHops, scratch, 0, nil)
		reach, hops := 0, 0
		for v := 1; v < n; v++ {
			if p.Reachable(trace.NodeID(v)) {
				reach++
				hops += p.Hops(trace.NodeID(v))
			}
		}
		if states := len(p.rate); states != reach {
			t.Errorf("n=%d (%d reachable, %d hops): %d states, want one per reachable node", n, reach, hops, states)
		}
		if want := 8*reach + 4*(n+reach) + n; p.Footprint() != want {
			t.Errorf("n=%d (%d reachable, %d hops): footprint %d bytes, want %d", n, reach, hops, p.Footprint(), want)
		}
		allocs := testing.AllocsPerRun(10, func() {
			p = g.PathsInto(0, DefaultMaxHops, scratch, 0, nil)
		})
		if allocs > 4 {
			t.Errorf("n=%d (%d reachable): PathsInto made %.1f allocs, want at most 4", n, reach, allocs)
		}
	}
}

// TestPreparedWeightsMatchNewHypoexp checks every path weight, which
// PathsInto prepares once and Weight reads back from the path tree and
// evaluates through mathx.View, bit for bit against a freshly
// constructed distribution, for every
// source and destination of the four Table I presets, at the preset's
// metric horizon T and three others: a minute, a day and a month.
func TestPreparedWeightsMatchNewHypoexp(t *testing.T) {
	metricT := map[trace.Preset]float64{
		trace.Infocom05: 3600, trace.Infocom06: 900,
		trace.MITReality: 7 * 86400, trace.UCSD: 3 * 86400,
	}
	for _, preset := range trace.Presets() {
		g := presetGraph(t, preset)
		horizons := []float64{metricT[preset], 60, 86400, 30 * 86400}
		if horizons[0] == 0 {
			t.Fatalf("no metric horizon for preset %s", preset)
		}
		scratch := &PathScratch{}
		for src := 0; src < g.n; src++ {
			p := g.PathsInto(trace.NodeID(src), DefaultMaxHops, scratch, 0, nil)
			for dst := 0; dst < g.n; dst++ {
				j := trace.NodeID(dst)
				if dst == src || !p.Reachable(j) {
					continue
				}
				h, err := mathx.NewHypoexp(p.HopRates(j))
				if err != nil {
					t.Fatal(err)
				}
				for _, at := range horizons {
					if got, want := p.Weight(j, at), h.CDF(at); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %d->%d at %g: prepared weight %v, NewHypoexp %v", preset, src, dst, at, got, want)
					}
				}
			}
		}
	}
}
