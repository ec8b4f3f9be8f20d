package graph

import (
	"testing"

	"dtncache/internal/mathx"
	"dtncache/internal/trace"
)

// TestPathsIntoMatchesPaths: a reused scratch must never change any
// result — delays, hop rates, or weights — for any source.
func TestPathsIntoMatchesPaths(t *testing.T) {
	const n = 40
	rng := mathx.NewRand(5)
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Bernoulli(0.15) {
				g.SetRate(trace.NodeID(i), trace.NodeID(j), rng.Exp(2000))
			}
		}
	}
	scratch := &PathScratch{}
	for src := 0; src < n; src++ {
		want := g.Paths(trace.NodeID(src), 4)
		got := g.PathsInto(trace.NodeID(src), 4, scratch, 0, nil)
		for v := 0; v < n; v++ {
			if expectedDelay(want, trace.NodeID(v)) != expectedDelay(got, trace.NodeID(v)) {
				t.Fatalf("src %d dst %d: delay %g != %g", src, v,
					expectedDelay(got, trace.NodeID(v)), expectedDelay(want, trace.NodeID(v)))
			}
			if ww, gw := want.Weight(trace.NodeID(v), 3600), got.Weight(trace.NodeID(v), 3600); ww != gw {
				t.Fatalf("src %d dst %d: weight %g != %g", src, v, gw, ww)
			}
		}
	}
}

// expectedDelay is the expected delay of the shortest opportunistic
// path to dst (0 for the source itself, 1e300 if unreachable): the sum
// of the hop delays 1/rate in src->dst order, the same additions the
// path search made, so it equals the search's layer value bit for bit.
func expectedDelay(p *Paths, dst trace.NodeID) float64 {
	if !p.Reachable(dst) {
		return 1e300
	}
	var d float64
	for _, r := range p.HopRates(dst) {
		d += 1 / r
	}
	return d
}

// TestPathsIntoResultOwnsDelay: mutating the scratch after PathsInto
// must not corrupt an earlier result (the slice must be copied out).
func TestPathsIntoResultOwnsDelay(t *testing.T) {
	g := NewGraph(4)
	g.SetRate(0, 1, 0.01)
	g.SetRate(1, 2, 0.02)
	scratch := &PathScratch{}
	p0 := g.PathsInto(0, 3, scratch, 0, nil)
	d01 := expectedDelay(p0, 1)
	_ = g.PathsInto(3, 3, scratch, 0, nil) // node 3 is isolated; overwrites the layers
	if expectedDelay(p0, 1) != d01 {
		t.Fatalf("delay changed after scratch reuse: %g != %g", expectedDelay(p0, 1), d01)
	}
}
