package graph

import (
	"math"
	"testing"

	"dtncache/internal/mathx"
	"dtncache/internal/trace"
)

// TestMaterializeAllocsPerSource pins the arena: Materialize makes two
// allocations per source, the Hypoexp slice and the coefficient slab,
// however many destinations the source reaches.
func TestMaterializeAllocsPerSource(t *testing.T) {
	rng := mathx.NewRand(3)
	for _, n := range []int{2, 12, 300} {
		g := NewGraph(n)
		for v := 1; v < n; v++ {
			// A tree of random fan-out: paths of one to several hops,
			// mostly distinct rates with some repeats.
			g.SetRate(trace.NodeID(rng.Intn(v)), trace.NodeID(v), float64(1+rng.Intn(50))/3600)
		}
		p := g.Paths(0, DefaultMaxHops)
		reach := 0
		for v := 1; v < n; v++ {
			if p.Reachable(trace.NodeID(v)) {
				reach++
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			p.dists = nil
			p.Materialize()
		})
		if allocs != 2 {
			t.Errorf("n=%d (%d reachable): Materialize made %.1f allocs, want 2", n, reach, allocs)
		}
	}
}

// TestMaterializedWeightsMatchNewHypoexp checks every arena-built
// distribution bit for bit against a freshly constructed one, for every
// source and destination of the four Table I presets, at the preset's
// metric horizon T and three others: a minute, a day and a month.
func TestMaterializedWeightsMatchNewHypoexp(t *testing.T) {
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
			p := g.PathsInto(trace.NodeID(src), DefaultMaxHops, scratch)
			p.Materialize()
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
						t.Fatalf("%s %d->%d at %g: arena weight %v, NewHypoexp %v", preset, src, dst, at, got, want)
					}
				}
			}
		}
	}
}
