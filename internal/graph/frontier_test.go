package graph

import (
	"math"
	"testing"

	"dtncache/internal/mathx"
	"dtncache/internal/trace"
)

// referenceLayers is the dense layered relaxation PathsInto used before
// frontier search: every layer relaxes every reachable node against its
// full n-wide rate row. It is the oracle the frontier search must match
// bit for bit.
func referenceLayers(g *Graph, src trace.NodeID, maxHops int) ([][]float64, [][]trace.NodeID) {
	n := g.n
	const inf = 1e300
	dist := make([][]float64, maxHops+1)
	choice := make([][]trace.NodeID, maxHops+1)
	for h := range dist {
		dist[h] = make([]float64, n)
		choice[h] = make([]trace.NodeID, n)
		for v := range dist[h] {
			dist[h][v] = inf
			choice[h][v] = -1
		}
	}
	dist[0][src] = 0
	for h := 1; h <= maxHops; h++ {
		copy(dist[h], dist[h-1])
		improved := false
		for u := 0; u < n; u++ {
			du := dist[h-1][u]
			if du >= inf {
				continue
			}
			row := g.rates[u*n : u*n+n]
			for v := 0; v < n; v++ {
				r := row[v]
				if r <= 0 {
					continue
				}
				if nd := du + 1/r; nd < dist[h][v] {
					dist[h][v] = nd
					choice[h][v] = trace.NodeID(u)
					improved = true
				}
			}
		}
		if !improved {
			for hh := h + 1; hh <= maxHops; hh++ {
				copy(dist[hh], dist[h])
			}
			break
		}
	}
	return dist, choice
}

// referenceHopRates walks the reference layers back from dst, as
// PathsInto recovers its paths, and returns the src->dst hop rates (nil
// when dst is the source or unreachable).
func referenceHopRates(g *Graph, choice [][]trace.NodeID, src, dst trace.NodeID) []float64 {
	var rates []float64
	cursor := dst
	for h := len(choice) - 1; h > 0 && cursor != src; h-- {
		u := choice[h][cursor]
		if u < 0 {
			continue
		}
		rates = append([]float64{g.Rate(u, cursor)}, rates...)
		cursor = u
	}
	if cursor != src {
		return nil
	}
	return rates
}

// checkFrontierMatchesReference runs PathsInto from src and compares
// every DP layer (dist and choice) and every recovered path against the
// dense reference, bitwise.
func checkFrontierMatchesReference(t *testing.T, g *Graph, src trace.NodeID, maxHops int, scratch *PathScratch) {
	t.Helper()
	p := g.PathsInto(src, maxHops, scratch)
	wantDist, wantChoice := referenceLayers(g, src, maxHops)
	for h := range wantDist {
		for v := range wantDist[h] {
			if got, want := scratch.dist[h][v], wantDist[h][v]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("src %d: dist[%d][%d] = %v, reference %v", src, h, v, got, want)
			}
			if got, want := scratch.choice[h][v], wantChoice[h][v]; got != want {
				t.Fatalf("src %d: choice[%d][%d] = %d, reference %d", src, h, v, got, want)
			}
		}
	}
	for v := 0; v < g.n; v++ {
		dst := trace.NodeID(v)
		want := referenceHopRates(g, wantChoice, src, dst)
		got := p.HopRates(dst)
		if dst == src || wantDist[maxHops][v] >= 1e300 {
			want = nil
		}
		if len(got) != len(want) {
			t.Fatalf("src %d dst %d: %d hops, reference %d", src, v, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("src %d dst %d hop %d: rate %v, reference %v", src, v, i, got[i], want[i])
			}
		}
	}
}

// tieGraph is a random graph whose rates are powers of two, so every
// expected delay is an exactly representable integer sum and many
// distinct paths tie: choice's first-upstream-node rule does real work.
func tieGraph(rng *mathx.Rand, n int, density float64) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Bernoulli(density) {
				g.SetRate(trace.NodeID(i), trace.NodeID(j), math.Ldexp(1, -rng.Intn(4)))
			}
		}
	}
	return g
}

func TestFrontierMatchesDenseReferenceOnTies(t *testing.T) {
	rng := mathx.NewRand(11)
	scratch := &PathScratch{}
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		g := tieGraph(rng, n, []float64{0.05, 0.15, 0.5, 1}[trial%4])
		if trial%2 == 0 {
			g.BuildAdjacency()
		}
		maxHops := 1 + rng.Intn(6)
		for src := 0; src < n; src++ {
			checkFrontierMatchesReference(t, g, trace.NodeID(src), maxHops, scratch)
		}
	}
}

// TestFrontierMatchesDenseReferenceOnPresets checks every source of the
// rate graph each Table I preset yields at mid-trace, with the default
// hop cap.
func TestFrontierMatchesDenseReferenceOnPresets(t *testing.T) {
	for _, p := range trace.Presets() {
		g := presetGraph(t, p)
		scratch := &PathScratch{}
		for src := 0; src < g.n; src++ {
			checkFrontierMatchesReference(t, g, trace.NodeID(src), DefaultMaxHops, scratch)
		}
	}
}

// presetGraph returns the rate graph of a Table I preset (seed 1) at
// mid-trace, with its neighbour lists built.
func presetGraph(t *testing.T, p trace.Preset) *Graph {
	t.Helper()
	tr, err := trace.GeneratePreset(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	est := NewRateEstimator(tr.Nodes, 0)
	at := tr.Duration / 2
	for _, c := range tr.Contacts {
		if c.Start > at {
			break
		}
		est.Observe(c.A, c.B)
	}
	g := est.Snapshot(at)
	g.BuildAdjacency()
	return g
}

// TestSetRateDropsAdjacency: neighbour lists built before a rate change
// must not be walked after it.
func TestSetRateDropsAdjacency(t *testing.T) {
	g := lineGraph(0.01, 0.01)
	g.BuildAdjacency()
	g.SetRate(0, 2, 1)
	if got := g.Paths(0, 3).Hops(2); got != 1 {
		t.Fatalf("hops 0->2 after SetRate = %d, want the new direct edge", got)
	}
	checkFrontierMatchesReference(t, g, 0, 3, &PathScratch{})
}

// FuzzPathsInto decodes raw bytes into a small graph with few distinct
// rates (ties galore), a source and a hop cap, and checks the frontier
// search against the dense reference.
func FuzzPathsInto(f *testing.F) {
	f.Add([]byte{4, 3, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 0, 3, 1})
	f.Add([]byte{8, 5, 2, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 0, 4, 2, 5, 6, 0, 6, 7, 3, 5, 7, 3})
	f.Add([]byte{3, 1, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 3 || len(raw) > 600 {
			t.Skip()
		}
		n := 2 + int(raw[0])%30
		maxHops := 1 + int(raw[1])%6
		src := trace.NodeID(int(raw[2]) % n)
		g := NewGraph(n)
		for i := 3; i+2 < len(raw); i += 3 {
			a, b := trace.NodeID(int(raw[i])%n), trace.NodeID(int(raw[i+1])%n)
			g.SetRate(a, b, math.Ldexp(1, -int(raw[i+2])%4))
		}
		if raw[0]&1 == 0 {
			g.BuildAdjacency()
		}
		checkFrontierMatchesReference(t, g, src, maxHops, &PathScratch{})
	})
}
