package graph

import (
	"math"
	"testing"

	"dtncache/internal/mathx"
	"dtncache/internal/trace"
)

func TestExactWeightTrivialCases(t *testing.T) {
	g := lineGraph(1, 2)
	if got := g.ExactWeight(0, 0, 5, 0); got != 1 {
		t.Errorf("self weight = %v", got)
	}
	if got := g.ExactWeight(0, 0, -1, 0); got != 0 {
		t.Errorf("self weight negative T = %v", got)
	}
	// Single edge: exponential CDF.
	want := 1 - math.Exp(-1.0*2)
	if got := g.ExactWeight(0, 1, 2, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("one-hop = %v, want %v", got, want)
	}
	// Unreachable.
	g2 := NewGraph(3)
	g2.SetRate(0, 1, 1)
	if got := g2.ExactWeight(0, 2, 10, 3); got != 0 {
		t.Errorf("unreachable = %v", got)
	}
}

func TestExactWeightPrefersBetterDetour(t *testing.T) {
	// Direct weak edge vs strong 2-hop detour: exact must find the
	// detour when T is generous.
	g := NewGraph(3)
	g.SetRate(0, 1, 0.01)
	g.SetRate(0, 2, 2)
	g.SetRate(2, 1, 2)
	direct, _ := mathx.PathWeight([]float64{0.01}, 5)
	detour, _ := mathx.PathWeight([]float64{2, 2}, 5)
	if detour <= direct {
		t.Fatal("test setup wrong")
	}
	got := g.ExactWeight(0, 1, 5, 3)
	if math.Abs(got-detour) > 1e-12 {
		t.Errorf("exact = %v, want detour %v", got, detour)
	}
}

func TestExactWeightRespectsHopCap(t *testing.T) {
	g := NewGraph(3)
	g.SetRate(0, 1, 0.01)
	g.SetRate(0, 2, 2)
	g.SetRate(2, 1, 2)
	direct, _ := mathx.PathWeight([]float64{0.01}, 5)
	got := g.ExactWeight(0, 1, 5, 1)
	if math.Abs(got-direct) > 1e-12 {
		t.Errorf("hop-capped exact = %v, want direct %v", got, direct)
	}
}

// TestHeuristicPathsAgainstExactOracle quantifies how close the
// polynomial minimum-expected-delay heuristic gets to the true optimum
// on random small graphs. The heuristic can never exceed the optimum;
// it should stay reasonably close on average.
func TestHeuristicPathsAgainstExactOracle(t *testing.T) {
	rng := mathx.NewRand(12)
	const n = 8
	const trials = 25
	var ratioSum float64
	var count int
	for trial := 0; trial < trials; trial++ {
		g := NewGraph(n)
		// Random sparse graph with heterogeneous rates.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Bernoulli(0.4) {
					g.SetRate(trace.NodeID(i), trace.NodeID(j), rng.Uniform(0.05, 2))
				}
			}
		}
		horizon := rng.Uniform(0.5, 4)
		paths := g.Paths(0, 4)
		for v := 1; v < n; v++ {
			exact := g.ExactWeight(0, trace.NodeID(v), horizon, 4)
			heur := paths.Weight(trace.NodeID(v), horizon)
			if heur > exact+1e-9 {
				t.Fatalf("heuristic %v exceeds exact optimum %v (trial %d, v %d)",
					heur, exact, trial, v)
			}
			if exact > 1e-6 {
				ratioSum += heur / exact
				count++
			}
		}
	}
	if count == 0 {
		t.Fatal("no reachable pairs sampled")
	}
	mean := ratioSum / float64(count)
	t.Logf("heuristic/exact mean ratio = %.4f over %d pairs", mean, count)
	if mean < 0.85 {
		t.Errorf("heuristic mean quality %.3f below 0.85 of optimal", mean)
	}
}

// ExactWeight computes the maximum opportunistic path weight p_ab(T)
// over *all* simple paths with at most maxHops hops, by exhaustive
// depth-first search. Appending a hop adds an independent positive delay
// term, so a path's weight can only decrease as it grows — which makes
// "current prefix weight <= best complete path found" a valid pruning
// bound.
//
// The search is exponential in the worst case; it is the test oracle
// for the polynomial minimum-expected-delay heuristic used by Paths.
func (g *Graph) ExactWeight(a, b trace.NodeID, t float64, maxHops int) float64 {
	if a == b {
		if t < 0 {
			return 0
		}
		return 1
	}
	if maxHops <= 0 {
		maxHops = DefaultMaxHops
	}
	s := &exactSearch{
		g:       g,
		dst:     b,
		t:       t,
		maxHops: maxHops,
		visited: make([]bool, g.n),
		rates:   make([]float64, 0, maxHops),
	}
	s.visited[a] = true
	s.dfs(a)
	return s.best
}

type exactSearch struct {
	g       *Graph
	dst     trace.NodeID
	t       float64
	maxHops int
	visited []bool
	rates   []float64
	best    float64
}

func (s *exactSearch) dfs(cur trace.NodeID) {
	if len(s.rates) >= s.maxHops {
		return
	}
	for _, next := range s.g.Neighbors(cur) {
		if s.visited[next] {
			continue
		}
		rate := s.g.Rate(cur, next)
		s.rates = append(s.rates, rate)
		w := s.pathWeight()
		if w > s.best {
			if next == s.dst {
				s.best = w
			}
			// Extensions of this prefix can only have weight <= w, so
			// recursing is worthwhile only while w beats the incumbent.
			if next != s.dst {
				s.visited[next] = true
				s.dfs(next)
				s.visited[next] = false
			}
		}
		s.rates = s.rates[:len(s.rates)-1]
	}
}

func (s *exactSearch) pathWeight() float64 {
	w, err := mathx.PathWeight(s.rates, s.t)
	if err != nil {
		return 0
	}
	return w
}
