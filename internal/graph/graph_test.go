package graph

import (
	"errors"
	"math"
	"testing"

	"dtncache/internal/trace"
)

func TestRateEstimator(t *testing.T) {
	e := NewRateEstimator(3, 100)
	if e.n != 3 {
		t.Errorf("n = %d", e.n)
	}
	e.Observe(0, 1)
	e.Observe(0, 1)
	e.Observe(1, 2)
	// Invalid observations are ignored.
	e.Observe(0, 0)
	e.Observe(-1, 2)
	e.Observe(0, 9)
	if e.Count(0, 1) != 2 || e.Count(1, 0) != 2 {
		t.Errorf("Count(0,1) = %d, want symmetric 2", e.Count(0, 1))
	}
	if got := e.Rate(0, 1, 300); math.Abs(got-2.0/200) > 1e-12 {
		t.Errorf("Rate = %v, want 0.01", got)
	}
	if e.Rate(0, 1, 100) != 0 || e.Rate(0, 1, 50) != 0 {
		t.Error("rate before window start must be 0")
	}
	g := e.Snapshot(300)
	if math.Abs(g.Rate(0, 1)-0.01) > 1e-12 {
		t.Errorf("snapshot rate = %v", g.Rate(0, 1))
	}
	if g.Rate(0, 2) != 0 {
		t.Error("unobserved pair should have zero rate")
	}
}

func TestFromMatrixValidation(t *testing.T) {
	if _, err := FromMatrix([][]float64{{0, 1}, {2, 0}}); err == nil {
		t.Error("asymmetric matrix accepted")
	}
	if _, err := FromMatrix([][]float64{{0, 1}}); err == nil {
		t.Error("non-square matrix accepted")
	}
	g, err := FromMatrix([][]float64{{0, 2}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Rate(0, 1) != 2 {
		t.Errorf("rate = %v", g.Rate(0, 1))
	}
}

func TestGraphSetRate(t *testing.T) {
	g := NewGraph(3)
	g.SetRate(0, 1, 5)
	if g.Rate(1, 0) != 5 {
		t.Error("SetRate must be symmetric")
	}
	g.SetRate(0, 1, -1)
	if g.Rate(0, 1) != 0 {
		t.Error("negative rate should clear the edge")
	}
	g.SetRate(0, 0, 3) // ignored
	if g.Rate(0, 0) != 0 {
		t.Error("self rate must stay 0")
	}
	g.SetRate(0, 9, 3) // ignored, out of range
}

func TestNeighbors(t *testing.T) {
	g := NewGraph(4)
	g.SetRate(1, 3, 1)
	g.SetRate(1, 0, 2)
	nb := g.Neighbors(1)
	if len(nb) != 2 || nb[0] != 0 || nb[1] != 3 {
		t.Errorf("Neighbors = %v", nb)
	}
	if g.Neighbors(2) != nil {
		t.Error("isolated node should have no neighbors")
	}
}

// lineGraph builds 0-1-2-...-n-1 with the given per-edge rates.
func lineGraph(rates ...float64) *Graph {
	g := NewGraph(len(rates) + 1)
	for i, r := range rates {
		g.SetRate(trace.NodeID(i), trace.NodeID(i+1), r)
	}
	return g
}

func TestPathsOnLine(t *testing.T) {
	g := lineGraph(1, 2, 4)
	p := g.Paths(0, 0)
	if p.Source() != 0 {
		t.Errorf("Source = %v", p.Source())
	}
	if !p.Reachable(3) || p.Hops(3) != 3 {
		t.Errorf("hops = %d, want 3", p.Hops(3))
	}
	if want := 1.0 + 0.5 + 0.25; math.Abs(expectedDelay(p, 3)-want) > 1e-12 {
		t.Errorf("delay = %v, want %v", expectedDelay(p, 3), want)
	}
	rates := p.HopRates(3)
	if len(rates) != 3 || rates[0] != 1 || rates[1] != 2 || rates[2] != 4 {
		t.Errorf("hop rates = %v", rates)
	}
	if p.Hops(0) != 0 || p.Weight(0, 5) != 1 {
		t.Error("source path should be trivial")
	}
}

func TestPathsPicksLowerDelayRoute(t *testing.T) {
	// 0-1 direct at rate 0.1 (delay 10); 0-2-1 via rates 1,1 (delay 2).
	g := NewGraph(3)
	g.SetRate(0, 1, 0.1)
	g.SetRate(0, 2, 1)
	g.SetRate(2, 1, 1)
	p := g.Paths(0, 0)
	if p.Hops(1) != 2 {
		t.Errorf("hops = %d, want 2 (relay route)", p.Hops(1))
	}
	if math.Abs(expectedDelay(p, 1)-2) > 1e-12 {
		t.Errorf("delay = %v, want 2", expectedDelay(p, 1))
	}
}

func TestPathsHopCap(t *testing.T) {
	// Same topology, but a 1-hop cap must force the direct edge.
	g := NewGraph(3)
	g.SetRate(0, 1, 0.1)
	g.SetRate(0, 2, 1)
	g.SetRate(2, 1, 1)
	p := g.Paths(0, 1)
	if p.Hops(1) != 1 {
		t.Errorf("hops = %d, want 1 under hop cap", p.Hops(1))
	}
	if math.Abs(expectedDelay(p, 1)-10) > 1e-12 {
		t.Errorf("delay = %v, want 10", expectedDelay(p, 1))
	}
}

func TestPathsUnreachable(t *testing.T) {
	g := NewGraph(4)
	g.SetRate(0, 1, 1)
	// nodes 2,3 isolated from 0
	g.SetRate(2, 3, 1)
	p := g.Paths(0, 0)
	if p.Reachable(2) || p.Reachable(3) {
		t.Error("disconnected nodes must be unreachable")
	}
	if p.Weight(2, 100) != 0 {
		t.Error("weight to unreachable node must be 0")
	}
	if p.Hops(2) != -1 {
		t.Errorf("hops = %d, want -1", p.Hops(2))
	}
}

func TestPathWeightMatchesHypoexp(t *testing.T) {
	g := lineGraph(1, 3)
	p := g.Paths(0, 0)
	// Two-hop weight: 1 - (b e^{-at} - a e^{-bt})/(b-a) with a=1,b=3.
	for _, tt := range []float64{0.5, 1, 2} {
		want := 1 - (3*math.Exp(-tt)-math.Exp(-3*tt))/2
		if got := p.Weight(2, tt); math.Abs(got-want) > 1e-9 {
			t.Errorf("Weight(2,%v) = %v, want %v", tt, got, want)
		}
	}
	// Cached second call must agree.
	if a, b := p.Weight(2, 1), p.Weight(2, 1); a != b {
		t.Error("cached weight differs")
	}
}

func TestPathsSymmetry(t *testing.T) {
	g := NewGraph(5)
	g.SetRate(0, 1, 0.5)
	g.SetRate(1, 2, 1.5)
	g.SetRate(2, 3, 0.7)
	g.SetRate(0, 4, 0.2)
	g.SetRate(4, 3, 2.0)
	pa := g.Paths(0, 0)
	pb := g.Paths(3, 0)
	if math.Abs(pa.Weight(3, 5)-pb.Weight(0, 5)) > 1e-12 {
		t.Errorf("asymmetric weights: %v vs %v", pa.Weight(3, 5), pb.Weight(0, 5))
	}
}

func TestMetricStarTopology(t *testing.T) {
	// Star: hub 0 connected to 1..4 at rate 1; leaves only via hub.
	g := NewGraph(5)
	for i := 1; i < 5; i++ {
		g.SetRate(0, trace.NodeID(i), 1)
	}
	metrics := g.Metrics(2, 0)
	// Hub must dominate every leaf.
	for i := 1; i < 5; i++ {
		if metrics[0] <= metrics[i] {
			t.Errorf("hub metric %v not above leaf %d metric %v", metrics[0], i, metrics[i])
		}
	}
	// Hub metric: average of 4 one-hop weights 1-e^{-2}.
	want := 1 - math.Exp(-2)
	if math.Abs(metrics[0]-want) > 1e-9 {
		t.Errorf("hub metric = %v, want %v", metrics[0], want)
	}
	// All leaves identical by symmetry.
	for i := 2; i < 5; i++ {
		if math.Abs(metrics[i]-metrics[1]) > 1e-12 {
			t.Errorf("leaf metrics differ: %v vs %v", metrics[i], metrics[1])
		}
	}
}

func TestMetricSingleNode(t *testing.T) {
	g := NewGraph(1)
	if g.Metric(0, 10, 0) != 0 {
		t.Error("single-node metric must be 0")
	}
}

func TestSelectNCLs(t *testing.T) {
	metrics := []float64{0.1, 0.9, 0.5, 0.9, 0.2}
	got := SelectNCLs(metrics, 3)
	// Ties (1 and 3 at 0.9) break by ascending ID.
	want := []trace.NodeID{1, 3, 2}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SelectNCLs = %v, want %v", got, want)
		}
	}
	if SelectNCLs(metrics, 0) != nil {
		t.Error("k=0 should select nothing")
	}
	if len(SelectNCLs(metrics, 10)) != 5 {
		t.Error("k beyond n should clamp")
	}
}

func TestAllPaths(t *testing.T) {
	g := lineGraph(1, 1)
	all := g.AllPaths(0)
	if len(all) != 3 {
		t.Fatalf("AllPaths len = %d", len(all))
	}
	if math.Abs(all[0].Weight(2, 3)-all[2].Weight(0, 3)) > 1e-12 {
		t.Error("all-pairs weights not symmetric")
	}
}

func TestEstimatedRatesRecoverTruth(t *testing.T) {
	// Feed synthetic contacts into the estimator and check the snapshot
	// graph approaches the generator's ground-truth rates.
	cfg := trace.GenConfig{
		Nodes: 8, DurationSec: 40 * 86400, GranularitySec: 60,
		TargetContacts: 30000, ActivityAlpha: 1.5, ActivityMax: 5, Seed: 9,
	}
	tr, truth, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewRateEstimator(tr.Nodes, 0)
	for _, c := range tr.Contacts {
		e.Observe(c.A, c.B)
	}
	g := e.Snapshot(tr.Duration)
	for i := 0; i < tr.Nodes; i++ {
		for j := i + 1; j < tr.Nodes; j++ {
			want := truth[i][j]
			if want*cfg.DurationSec < 200 {
				continue
			}
			got := g.Rate(trace.NodeID(i), trace.NodeID(j))
			if math.Abs(got-want)/want > 0.15 {
				t.Errorf("pair %d-%d: rate %v, truth %v", i, j, got, want)
			}
		}
	}
}

func BenchmarkPaths100Nodes(b *testing.B) {
	cfg := trace.GenConfig{
		Nodes: 100, DurationSec: 86400, GranularitySec: 60,
		TargetContacts: 50000, ActivityAlpha: 1.5, ActivityMax: 10, Seed: 1,
	}
	_, truth, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	g, err := FromMatrix(truth)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Paths(trace.NodeID(i%100), 0)
	}
}

// FromMatrix builds a graph from a symmetric rate matrix.
func FromMatrix(rates [][]float64) (*Graph, error) {
	n := len(rates)
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		if len(rates[i]) != n {
			return nil, errors.New("graph: rate matrix not square")
		}
		for j := 0; j < n; j++ {
			if rates[i][j] != rates[j][i] {
				return nil, errors.New("graph: rate matrix not symmetric")
			}
			if i != j && rates[i][j] > 0 {
				g.rates[i*n+j] = rates[i][j]
			}
		}
	}
	return g, nil
}
