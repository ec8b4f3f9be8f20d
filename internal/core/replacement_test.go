package core

import (
	"math"
	"sort"
	"testing"

	"dtncache/internal/knapsack"
	"dtncache/internal/mathx"
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
	cfg.Trace = tr
	cfg.MetricT = 3600
	cfg.K = 1
	env, err := scheme.NewEnv(cfg, w, s)
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
	env.Cfg.DisableProbabilisticSelection = true
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

// referencePool is the map-and-sort buildPool the merge replaced: group
// both buffers' eligible entries by data ID, then walk the IDs in
// ascending order. The merged pool must equal it field for field, with
// bit-identical pinned sums.
func referencePool(s *Intentional, a, b trace.NodeID, now float64) (pool []poolItem, pinnedA, pinnedB float64) {
	byID := make(map[workload.DataID]*poolItem)
	for _, side := range []struct {
		n   trace.NodeID
		isA bool
	}{{a, true}, {b, false}} {
		for _, en := range s.env.Buffers[side.n].Entries() {
			if !s.poolable(side.n, en, now) {
				continue
			}
			p, ok := byID[en.Data.ID]
			if !ok {
				p = &poolItem{item: en.Data, homeA: -1, homeB: -1}
				byID[en.Data.ID] = p
			}
			if side.isA {
				p.atA, p.homeA, p.transitA = true, en.Home, en.InTransit
			} else {
				p.atB, p.homeB, p.transitB = true, en.Home, en.InTransit
			}
		}
	}
	ids := make([]workload.DataID, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := byID[id]
		if p.atA && p.atB && p.homeA != p.homeB {
			pinnedA += p.item.SizeBits
			pinnedB += p.item.SizeBits
			continue
		}
		sa, sb := s.base.Stats(a, id), s.base.Stats(b, id)
		u := math.Max(s.env.Popularity(&sa, p.item.Expires), s.env.Popularity(&sb, p.item.Expires))
		p.utility = math.Max(u, s.utilityFloor)
		pool = append(pool, *p)
	}
	return pool, pinnedA, pinnedB
}

// fillBuffers stages random contents on nodes 0 and 1: overlapping
// item sets, mixed NCL homes and transit flags, some expired items,
// some copies mid-transfer, and request histories for the utilities.
func fillBuffers(t *testing.T, env *scheme.Env, s *Intentional, rng *mathx.Rand, now float64) {
	t.Helper()
	for _, n := range []trace.NodeID{0, 1} {
		for env.Buffers[n].Len() > 0 {
			env.Buffers[n].Remove(env.Buffers[n].Entries()[0].Data.ID)
		}
	}
	clear(s.inflightPush)
	for id := 0; id < 40; id++ {
		item := workload.DataItem{ID: workload.DataID(id), Source: 2,
			SizeBits: float64(1+rng.Intn(7)) * 1.1e6, Created: now - 100, Expires: now + 5000}
		if rng.Bernoulli(0.1) {
			item.Expires = now - 1
		}
		for _, n := range []trace.NodeID{0, 1} {
			if !rng.Bernoulli(0.5) {
				continue
			}
			en, err := env.Buffers[n].Put(item, now)
			if err != nil {
				t.Fatal(err)
			}
			en.Home = rng.Intn(2)
			en.InTransit = rng.Bernoulli(0.3)
			if rng.Bernoulli(0.1) {
				s.inflightPush[pushTransfer{holder: n, data: item.ID, ncl: en.Home}] = true
			}
			if rng.Bernoulli(0.5) {
				s.base.Observe(n, item.ID, now-float64(rng.Intn(90)))
			}
		}
	}
}

func TestBuildPoolMatchesMapReference(t *testing.T) {
	env, s, _ := replacementFixture(t)
	now := env.Sim.Now()
	rng := mathx.NewRand(3)
	for trial := 0; trial < 50; trial++ {
		fillBuffers(t, env, s, rng, now)
		for _, ab := range [][2]trace.NodeID{{0, 1}, {1, 0}} {
			want, wantA, wantB := referencePool(s, ab[0], ab[1], now)
			got, gotA, gotB := s.buildPool(ab[0], ab[1], now)
			if len(got) != len(want) {
				t.Fatalf("trial %d: pool has %d items, reference %d", trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: pool[%d] = %+v, reference %+v", trial, i, got[i], want[i])
				}
			}
			if math.Float64bits(gotA) != math.Float64bits(wantA) || math.Float64bits(gotB) != math.Float64bits(wantB) {
				t.Fatalf("trial %d: pinned %v/%v, reference %v/%v", trial, gotA, gotB, wantA, wantB)
			}
		}
	}
}

// TestBuildPoolZeroAlloc: once the scratch arrays have grown to the
// largest exchange seen, building a pool and selecting from it with
// Algorithm 1 allocate nothing. Under -race only the pool is measured:
// the selection draws its round scratch from a sync.Pool.
//
//dtn:allocfree the measured closure may not allocate
func TestBuildPoolZeroAlloc(t *testing.T) {
	env, s, _ := replacementFixture(t)
	now := env.Sim.Now()
	fillBuffers(t, env, s, mathx.NewRand(4), now)
	pool, _, _ := s.buildPool(0, 1, now)
	if len(pool) == 0 {
		t.Fatal("empty pool: the fixture staged nothing")
	}
	items := make([]knapsack.Item, len(pool))
	total := 0
	for i, p := range pool {
		items[i] = knapsack.Item{ID: i, Size: int(math.Ceil(p.item.SizeBits / 1e6)), Value: max(p.utility, 0.5)}
		total += items[i].Size
	}
	if env.Cfg.DisableProbabilisticSelection {
		t.Fatal("the fixture runs without Algorithm 1")
	}
	if len(s.selectFor(items, total/2)) == 0 {
		t.Fatal("Algorithm 1 selected nothing: the pin would not cover the selection")
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.buildPool(0, 1, now)
		if !raceEnabled {
			s.selectFor(items, total/2)
		}
	})
	if allocs != 0 {
		t.Errorf("buildPool + selectFor: %.1f allocs/op, want 0", allocs)
	}
}

// TestMigrationAllocs pins the pooled migration records: once warm, a
// replacement migration's enqueue and delivery allocate only the
// receiver's buffer entry, which buffer.Put makes for every insertion —
// no per-transfer OnDelivered/OnDropped closures. No sync.Pool is on
// the path, so the pin holds under -race too.
//
//dtn:allocfree the measured closure allocates only buffer entries
func TestMigrationAllocs(t *testing.T) {
	env, s, _ := replacementFixture(t)
	// Inside the 0-2 contact of [30500, 31100], after the contact's own
	// 4.8 s push and clear of the sweep and refresh ticks at 30300 and
	// 30600.
	env.Sim.RunUntil(30510)
	sess := env.Driver.Session(0, 2)
	if sess == nil || len(s.inflightPush) != 0 {
		t.Fatalf("no idle 0-2 contact (in flight: %v)", s.inflightPush)
	}
	item := workload.DataItem{ID: 7, Source: 1, SizeBits: 1000, Created: 30100, Expires: 59000}
	if _, err := env.Buffers[0].Put(item, env.Sim.Now()); err != nil {
		t.Fatal(err)
	}
	dur := env.XferSec(item.SizeBits)
	moves := 0
	allocs := testing.AllocsPerRun(100, func() {
		for _, hop := range [2][2]trace.NodeID{{0, 2}, {2, 0}} {
			s.move(sess, hop[0], hop[1], item, 0, false)
			env.Sim.RunUntil(env.Sim.Now() + dur)
			if env.Buffers[hop[1]].Has(item.ID) && !env.Buffers[hop[0]].Has(item.ID) {
				moves++
			}
		}
	})
	if allocs != 2 {
		t.Errorf("two migrations: %.1f allocs/op, want 2 (one buffer entry each)", allocs)
	}
	if moves != 202 || len(s.inflightPush) != 0 || env.Sim.Now() > 30599 {
		t.Fatalf("%d of 202 migrations landed (%d still in flight) by t=%v",
			moves, len(s.inflightPush), env.Sim.Now())
	}
}

// TestPushAllocs pins the pooled push records: once warm, a push from a
// data source's pending copies and a push from a relay's buffer each
// allocate only the receiver's buffer entry — no per-transfer
// OnDelivered/OnDropped closures. No sync.Pool is on the path, so the
// pin holds under -race too.
//
//dtn:allocfree the measured closure allocates only buffer entries
func TestPushAllocs(t *testing.T) {
	env, s, _ := replacementFixture(t)
	env.Sim.RunUntil(30510) // inside the idle 0-2 contact, as in TestMigrationAllocs
	sess := env.Driver.Session(0, 2)
	if sess == nil || len(s.inflightPush) != 0 {
		t.Fatalf("no idle 0-2 contact (in flight: %v)", s.inflightPush)
	}
	item := workload.DataItem{ID: 7, Source: 0, SizeBits: 1000, Created: 30100, Expires: 59000}
	key := pushKey{Data: item.ID, NCL: 0}
	// Center 1 is on neither end, so each copy lands still in transit
	// and the relay on 2 forwards it again.
	const center = trace.NodeID(1)
	dur := env.XferSec(item.SizeBits)
	before := s.stats
	allocs := testing.AllocsPerRun(100, func() {
		s.pendingSet(0, key, item)
		s.push(sess, pushTransfer{holder: 0, data: item.ID, ncl: 0}, 2, center, item, false)
		env.Sim.RunUntil(env.Sim.Now() + dur)
		s.push(sess, pushTransfer{holder: 2, data: item.ID, ncl: 0}, 0, center, item, true)
		env.Sim.RunUntil(env.Sim.Now() + dur)
		env.Buffers[0].Remove(item.ID)
	})
	if allocs != 2 {
		t.Errorf("a source push and a relay push: %.1f allocs/op, want 2 (one buffer entry each)", allocs)
	}
	departed, relayed := s.stats.SourceDepartures-before.SourceDepartures, s.stats.RelayHops-before.RelayHops
	if departed != 101 || relayed != 101 || len(s.inflightPush) != 0 || env.Sim.Now() > 30599 {
		t.Fatalf("%d source and %d relay pushes of 101 landed (%d still in flight) by t=%v",
			departed, relayed, len(s.inflightPush), env.Sim.Now())
	}
}
