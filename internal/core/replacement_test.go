package core

import (
	"testing"

	"dtncache/internal/scheme"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// pairTrace builds a 2-node trace with long periodic contacts, plus a
// third node so NCL selection has a hub to pick: 0-1 meet often, 2 is
// the hub meeting both.
func pairTrace(duration float64) *trace.Trace {
	tr := &trace.Trace{Name: "pair", Nodes: 3, Duration: duration, Granularity: 60}
	for t := 500.0; t+2400 < duration; t += 2000 {
		tr.Contacts = append(tr.Contacts,
			trace.Contact{A: 0, B: 2, Start: t, End: t + 600},
			trace.Contact{A: 1, B: 2, Start: t + 700, End: t + 1300},
		)
	}
	// 0-1 meet rarely: node 2 is the clear hub.
	for t := 1500.0; t+600 < duration; t += 10000 {
		tr.Contacts = append(tr.Contacts,
			trace.Contact{A: 0, B: 1, Start: t + 63, End: t + 500})
	}
	tr.SortContacts()
	return tr
}

// replacementFixture builds an env with an Intentional scheme on the
// pair trace and a two-item workload, then runs only the warm-up so
// tests can stage buffer contents by hand.
func replacementFixture(t *testing.T, opts ...Option) (*scheme.Env, *Intentional, *workload.Workload) {
	t.Helper()
	tr := pairTrace(60000)
	w := &workload.Workload{
		Config: workload.Config{
			Nodes: tr.Nodes, GenProb: 0.2, AvgLifetime: 20000,
			AvgSizeBits: 10e6, ZipfExponent: 1,
			Start: tr.Duration / 2, End: tr.Duration, Seed: 1,
		},
		Data: []workload.DataItem{
			{ID: 0, Source: 0, SizeBits: 10e6, Created: 30100, Expires: 59000},
			{ID: 1, Source: 1, SizeBits: 10e6, Created: 30100, Expires: 59000},
		},
	}
	s := New(opts...)
	cfg := scheme.DefaultConfig(tr.Duration)
	cfg.MetricT = 3600
	cfg.NCLCount = 1
	cfg.QuantBits = 1e6
	env, err := scheme.NewEnv(tr, w, cfg, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	env.Sim.RunUntil(30000) // past warm-up; NCLs selected
	return env, s, w
}

func TestNCLWeightOrdersNodes(t *testing.T) {
	env, s, _ := replacementFixture(t)
	if ncls := env.NCLs(); len(ncls) != 1 || ncls[0] != 2 {
		t.Fatalf("NCLs = %v, want hub [2]", env.NCLs())
	}
	// The hub itself has weight 1 to the NCL; others strictly less.
	if s.nclWeight(2) != 1 {
		t.Errorf("hub weight = %v", s.nclWeight(2))
	}
	if s.nclWeight(0) >= 1 || s.nclWeight(0) <= 0 {
		t.Errorf("leaf weight = %v", s.nclWeight(0))
	}
}

func TestBuildPoolExcludesTransitAndDifferentHomes(t *testing.T) {
	env, s, w := replacementFixture(t)
	now := env.Sim.Now()
	// Node 0: item 0 settled (home 0); node 1: item 1 in transit.
	en0, err := env.Buffers[0].Put(w.Data[0], now)
	if err != nil {
		t.Fatal(err)
	}
	en0.Home = 0
	en1, err := env.Buffers[1].Put(w.Data[1], now)
	if err != nil {
		t.Fatal(err)
	}
	en1.Home = 0
	en1.InTransit = true

	pool, pinnedA, pinnedB := s.buildPool(0, 1, now)
	// In-transit copies ARE pool members now (unless mid-transfer).
	if len(pool) != 2 {
		t.Fatalf("pool = %d items, want 2", len(pool))
	}
	if pinnedA != 0 || pinnedB != 0 {
		t.Errorf("pinned = %v/%v", pinnedA, pinnedB)
	}

	// Same item at both nodes with different homes is excluded and
	// pinned on both sides.
	en0b, err := env.Buffers[1].Put(w.Data[0], now)
	if err != nil {
		t.Fatal(err)
	}
	en0b.Home = 1 // different NCL than node 0's copy
	pool, pinnedA, pinnedB = s.buildPool(0, 1, now)
	for _, p := range pool {
		if p.item.ID == 0 {
			t.Error("different-home duplicate should be excluded from the pool")
		}
	}
	if pinnedA != w.Data[0].SizeBits || pinnedB != w.Data[0].SizeBits {
		t.Errorf("pinned = %v/%v, want item size both sides", pinnedA, pinnedB)
	}
}

func TestReplacementCollapsesSameHomeDuplicates(t *testing.T) {
	env, s, w := replacementFixture(t)
	now := env.Sim.Now()
	for _, n := range []trace.NodeID{0, 1} {
		en, err := env.Buffers[n].Put(w.Data[0], now)
		if err != nil {
			t.Fatal(err)
		}
		en.Home = 0
	}
	_ = s
	// Run across the next 0-1 contact; replacement must collapse the
	// same-home duplicate to a single copy.
	env.Sim.RunUntil(34000)
	copies := 0
	for _, n := range []trace.NodeID{0, 1, 2} {
		if env.Buffers[n].Has(0) {
			copies++
		}
	}
	if copies != 1 {
		t.Errorf("copies after replacement = %d, want 1", copies)
	}
}

func TestSelectForDeterministicWithoutBernoulli(t *testing.T) {
	env, s, w := replacementFixture(t)
	env.Cfg.ProbabilisticSelection = false
	now := env.Sim.Now()
	en, err := env.Buffers[0].Put(w.Data[0], now)
	if err != nil {
		t.Fatal(err)
	}
	en.Home = 0
	pool, _, _ := s.buildPool(0, 1, now)
	if len(pool) != 1 {
		t.Fatalf("pool = %d", len(pool))
	}
}
