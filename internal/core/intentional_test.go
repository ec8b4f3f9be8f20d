package core

import (
	"testing"

	"dtncache/internal/buffer"
	"dtncache/internal/scheme"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// lineTrace builds a 3-node line 0-1-2 with periodic contacts; node 1 is
// the hub and therefore the NCL for K=1.
func lineTrace(period, duration float64) *trace.Trace {
	tr := &trace.Trace{Name: "line", Nodes: 3, Duration: duration, Granularity: 60}
	for t := period; t+400 < duration; t += period {
		tr.Contacts = append(tr.Contacts,
			trace.Contact{A: 0, B: 1, Start: t, End: t + 300},
			trace.Contact{A: 1, B: 2, Start: t + period/2, End: t + period/2 + 300},
		)
	}
	tr.SortContacts()
	return tr
}

func manualWorkload(tr *trace.Trace) *workload.Workload {
	return &workload.Workload{
		Config: workload.Config{
			Nodes: tr.Nodes, GenProb: 0.2, AvgLifetime: 18000,
			AvgSizeBits: 10e6, ZipfExponent: 1,
			Start: tr.Duration / 2, End: tr.Duration, Seed: 1,
		},
		Data: []workload.DataItem{{
			ID: 0, Source: 0, SizeBits: 10e6, Created: 21000, Expires: 39000,
		}},
		Queries: []workload.Query{{
			ID: 0, Requester: 2, Data: 0, Issued: 25000, Deadline: 38000,
		}},
	}
}

func lineConfig(tr *trace.Trace) scheme.Config {
	cfg := scheme.DefaultConfig(tr.Duration)
	cfg.Trace = tr
	cfg.MetricT = 3600
	cfg.K = 1
	return cfg
}

func TestInitRequiresNCLs(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr)
	cfg := lineConfig(tr)
	cfg.K = 0
	if _, err := scheme.NewEnv(cfg, w, New()); err == nil {
		t.Error("K=0 accepted")
	}
}

func TestIntentionalEndToEnd(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr)
	s := New()
	env, err := scheme.NewEnv(lineConfig(tr), w, s)
	if err != nil {
		t.Fatal(err)
	}
	rep := env.Run()
	if rep.QueriesSatisfied != 1 {
		t.Fatalf("query not satisfied: %+v", rep)
	}
	st := s.Stats()
	if st.SourceDepartures == 0 {
		t.Error("push never left the source")
	}
	if st.CachedAtCenter == 0 {
		t.Error("push never reached the central node")
	}
}

func TestPushLandsAtCenter(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr)
	s := New()
	env, err := scheme.NewEnv(lineConfig(tr), w, s)
	if err != nil {
		t.Fatal(err)
	}
	// Stop mid-simulation, after the data had a chance to be pushed.
	env.Sim.RunUntil(24000)
	ncls := env.NCLs()
	if len(ncls) != 1 || ncls[0] != 1 {
		t.Fatalf("NCLs = %v, want the hub [1]", ncls)
	}
	en := env.Buffers[1].Get(0)
	if en == nil {
		t.Fatal("central node does not hold the pushed copy")
	}
	if en.InTransit {
		t.Error("copy at the center must not be in transit")
	}
	if en.Home != 0 {
		t.Errorf("home = %d, want 0", en.Home)
	}
}

func TestIntentionalName(t *testing.T) {
	if New().Name() != "Intentional" {
		t.Error("default name")
	}
	if New(WithEvictionPolicy(buffer.LRU{})).Name() != "Intentional-LRU" {
		t.Error("policy name")
	}
}

func TestIntentionalDeterministic(t *testing.T) {
	tr, err := trace.GeneratePreset(trace.Infocom05, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(workload.Config{
		Nodes: tr.Nodes, GenProb: 0.2, AvgLifetime: 3 * 3600,
		AvgSizeBits: 50e6, ZipfExponent: 1,
		Start: tr.Duration / 2, End: tr.Duration, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func() interface{} {
		cfg := scheme.DefaultConfig(tr.Duration)
		cfg.Trace = tr
		cfg.MetricT = 3600
		cfg.K = 3
		env, err := scheme.NewEnv(cfg, w, New())
		if err != nil {
			t.Fatal(err)
		}
		return env.Run()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestIntentionalOnInfocom05BeatsNoCache(t *testing.T) {
	tr, err := trace.GeneratePreset(trace.Infocom05, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(workload.Config{
		Nodes: tr.Nodes, GenProb: 0.2, AvgLifetime: 3 * 3600,
		AvgSizeBits: 100e6, ZipfExponent: 1,
		Start: tr.Duration / 2, End: tr.Duration, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	runScheme := func(s scheme.Scheme) float64 {
		cfg := scheme.DefaultConfig(tr.Duration)
		cfg.Trace = tr
		cfg.MetricT = 3600
		cfg.K = 5
		env, err := scheme.NewEnv(cfg, w, s)
		if err != nil {
			t.Fatal(err)
		}
		return env.Run().SuccessRatio
	}
	ours := runScheme(New())
	nocache := runScheme(scheme.NewNoCache())
	if ours <= nocache {
		t.Errorf("intentional %.3f does not beat NoCache %.3f", ours, nocache)
	}
}

func TestEvictionPolicyVariantRuns(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr)
	for _, p := range []buffer.Policy{buffer.FIFO{}, buffer.LRU{}, &buffer.GreedyDualSize{}} {
		s := New(WithEvictionPolicy(p))
		env, err := scheme.NewEnv(lineConfig(tr), w, s)
		if err != nil {
			t.Fatal(err)
		}
		rep := env.Run()
		if rep.QueriesSatisfied != 1 {
			t.Errorf("%s: query not satisfied", s.Name())
		}
	}
}

func TestReplacementDisabled(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr)
	s := New(WithReplacement(false))
	env, err := scheme.NewEnv(lineConfig(tr), w, s)
	if err != nil {
		t.Fatal(err)
	}
	rep := env.Run()
	if rep.ReplacementMoves != 0 {
		t.Errorf("replacement ran despite being disabled: %d moves", rep.ReplacementMoves)
	}
	if rep.QueriesSatisfied != 1 {
		t.Error("query not satisfied without replacement")
	}
}

func TestUtilityFloorOption(t *testing.T) {
	s := New(WithUtilityFloor(0.5))
	if s.utilityFloor != 0.5 {
		t.Error("utility floor not applied")
	}
}

func TestPopularDataMigratesTowardCenter(t *testing.T) {
	// Two caching nodes contact each other repeatedly; the one nearer
	// the NCL (node 1, the hub itself) should end up holding the
	// popular data. We verify indirectly: with replacement on, cached
	// copies concentrate no further from the center than without it.
	tr, err := trace.GeneratePreset(trace.Infocom05, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(workload.Config{
		Nodes: tr.Nodes, GenProb: 0.2, AvgLifetime: 3 * 3600,
		AvgSizeBits: 100e6, ZipfExponent: 1,
		Start: tr.Duration / 2, End: tr.Duration, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(replacement bool) float64 {
		cfg := scheme.DefaultConfig(tr.Duration)
		cfg.Trace = tr
		cfg.MetricT = 3600
		cfg.K = 5
		env, err := scheme.NewEnv(cfg, w, New(WithReplacement(replacement)))
		if err != nil {
			t.Fatal(err)
		}
		return env.Run().SuccessRatio
	}
	with := run(true)
	without := run(false)
	// Replacement should not hurt, and usually helps.
	if with < without-0.05 {
		t.Errorf("replacement hurt success: with %.3f, without %.3f", with, without)
	}
}

func TestQuerySprayOption(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr)
	s := New(WithQuerySpray(4))
	env, err := scheme.NewEnv(lineConfig(tr), w, s)
	if err != nil {
		t.Fatal(err)
	}
	rep := env.Run()
	if rep.QueriesSatisfied != 1 {
		t.Fatalf("spray variant failed the line scenario: %+v", rep)
	}
}

func TestQuerySprayOnPreset(t *testing.T) {
	tr, err := trace.GeneratePreset(trace.Infocom05, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(workload.Config{
		Nodes: tr.Nodes, GenProb: 0.2, AvgLifetime: 3 * 3600,
		AvgSizeBits: 50e6, ZipfExponent: 1,
		Start: tr.Duration / 2, End: tr.Duration, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(spray int) float64 {
		cfg := scheme.DefaultConfig(tr.Duration)
		cfg.Trace = tr
		cfg.MetricT = 3600
		cfg.K = 3
		var s *Intentional
		if spray > 1 {
			s = New(WithQuerySpray(spray))
		} else {
			s = New()
		}
		env, err := scheme.NewEnv(cfg, w, s)
		if err != nil {
			t.Fatal(err)
		}
		return env.Run().SuccessRatio
	}
	single := run(1)
	spray := run(4)
	// Spraying can only widen query reach; allow a tiny tolerance for
	// bandwidth contention side effects.
	if spray < single-0.05 {
		t.Errorf("spray success %.3f well below single-copy %.3f", spray, single)
	}
}

func TestCoreHelpers(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr)
	s := New()
	env, err := scheme.NewEnv(lineConfig(tr), w, s)
	if err != nil {
		t.Fatal(err)
	}
	env.Sim.RunUntil(22000) // warm-up done, data generated

	// centerOf bounds.
	if s.centerOf(-1) != -1 || s.centerOf(99) != -1 {
		t.Error("centerOf out-of-range should be -1")
	}
	if s.centerOf(0) != 1 {
		t.Errorf("centerOf(0) = %v, want hub 1", s.centerOf(0))
	}

	// hasPending / sortedPending reflect outstanding pushes at the source.
	if len(s.sortedPending(0)) == 0 && !env.Buffers[1].Has(0) {
		t.Error("no pending push and no cached copy after data generation")
	}
	if s.hasPending(2, 0) {
		t.Error("non-source claims pending push")
	}

	// isCachingNode: the center is always in its own subgraph.
	if !s.isCachingNode(1, 0) {
		t.Error("center not a caching node of its NCL")
	}
	if s.isCachingNode(2, 0) && env.Buffers[2].Get(0) == nil {
		t.Error("requester claims caching-node status without a copy")
	}
}

// TestBroadcastDeliveryCarries pins the pooled broadcast transfer's
// carry rule: a delivery to a node without the copy's (query, target)
// key adds exactly one fresh broadcast carry (no spray budget), a
// delivery to a node that already carries the key adds none, and the
// record returns to the pool either way.
func TestBroadcastDeliveryCarries(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr)
	s := New()
	env, err := scheme.NewEnv(lineConfig(tr), w, s)
	if err != nil {
		t.Fatal(err)
	}
	env.Sim.RunUntil(22000) // warm-up done; the query is not issued yet
	const to = trace.NodeID(2)
	deliver := func(qc *scheme.QueryCarry) *bcastXfer {
		x := s.getBcast()
		x.qc, x.from, x.to, x.sent = qc, 1, to, env.Sim.Now()
		x.delivered(env.Sim.Now())
		if n := len(s.bcastFree); n == 0 || s.bcastFree[n-1] != x {
			t.Fatal("delivered record not returned to the pool")
		}
		return x
	}
	sender := &scheme.QueryCarry{Q: w.Queries[0], Target: 1, NCL: 0, Broadcast: true, Copies: 3}
	if s.base.CarriesQueryKey(to, sender) {
		t.Fatal("fixture: node 2 already carries the query")
	}
	first := deliver(sender)
	got := s.base.Queries(to)
	if len(got) != 1 {
		t.Fatalf("fresh node carries %d copies, want 1", len(got))
	}
	want := scheme.QueryCarry{Q: sender.Q, Target: sender.Target, NCL: sender.NCL, Broadcast: true}
	if got[0] == sender || *got[0] != want {
		t.Fatalf("fresh carry = %+v (shared with sender: %v), want a new %+v", *got[0], got[0] == sender, want)
	}

	again := &scheme.QueryCarry{Q: w.Queries[0], Target: 1, NCL: 0, Broadcast: true}
	if deliver(again) != first {
		t.Error("second delivery did not reuse the pooled record")
	}
	if after := s.base.Queries(to); len(after) != 1 || after[0] != got[0] {
		t.Errorf("repeat delivery changed node 2's carries: %v", after)
	}
}

// TestBroadcastCustodyHandOff pins the enqueue-time custody answer
// against a removal in flight: receiver R carries a gradient copy of
// (Q, T) when a broadcast copy of the same key is enqueued to it, and
// loses that copy — handed off on another contact, or wiped by a crash —
// before the broadcast copy lands. The delivery must then give R a
// fresh broadcast carry, as a search at delivery time would.
func TestBroadcastCustodyHandOff(t *testing.T) {
	for _, tc := range []struct {
		name   string
		remove func(b *scheme.Base, r trace.NodeID, qc *scheme.QueryCarry)
	}{
		{"hand-off", func(b *scheme.Base, r trace.NodeID, qc *scheme.QueryCarry) {
			b.DropQuery(r, qc)
			b.CarryQuery(0, qc)
		}},
		{"crash", func(b *scheme.Base, r trace.NodeID, _ *scheme.QueryCarry) { b.DropNodeState(r) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := lineTrace(1000, 40000)
			w := manualWorkload(tr)
			s := New()
			env, err := scheme.NewEnv(lineConfig(tr), w, s)
			if err != nil {
				t.Fatal(err)
			}
			env.Sim.RunUntil(22000)
			const r = trace.NodeID(2)
			gradient := &scheme.QueryCarry{Q: w.Queries[0], Target: 1, NCL: 0}
			s.base.CarryQuery(r, gradient)

			sender := &scheme.QueryCarry{Q: w.Queries[0], Target: 1, NCL: 0, Broadcast: true}
			cur := s.base.QueryCursor(r)
			x := s.getBcast()
			x.qc, x.from, x.to, x.sent, x.held = sender, 1, r, env.Sim.Now(), cur.Custody(sender)
			if !s.base.Carries(r, sender, x.held) {
				t.Fatal("fixture: R does not carry the key at enqueue")
			}

			tc.remove(s.base, r, gradient)
			x.delivered(env.Sim.Now())
			got := s.base.Queries(r)
			if len(got) != 1 || !got[0].Broadcast || got[0].Q.ID != sender.Q.ID || got[0].Target != sender.Target {
				t.Fatalf("R carries %v after delivery, want one broadcast copy of (Q, T)", got)
			}
		})
	}
}

// TestPeerCandidatesExact: the peer set broadcastQueries builds once
// per call, confirmed by peerCaches, answers isCachingNode for every
// NCL index, including homes past the first 64-bit word and homes out
// of the NCL range.
func TestPeerCandidatesExact(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr)
	s := New()
	env, err := scheme.NewEnv(lineConfig(tr), w, s)
	if err != nil {
		t.Fatal(err)
	}
	env.Sim.RunUntil(22000)
	now := env.Sim.Now()
	for i, home := range []int{0, 5, 64, 70, 1000, -1} {
		n := trace.NodeID(i % tr.Nodes)
		item := workload.DataItem{ID: workload.DataID(100 + i), Source: n, SizeBits: 1e3, Created: now, Expires: now + 1e4}
		en, err := env.Buffers[n].Put(item, now)
		if err != nil {
			t.Fatal(err)
		}
		en.Home = home
	}
	for n := trace.NodeID(0); int(n) < tr.Nodes; n++ {
		found := s.peerCandidates(n)
		member := false
		for k := -3; k < 1100; k++ {
			want := s.isCachingNode(n, k)
			member = member || want
			if got := inNCLSet(&s.peer, k) && s.peerCaches(n, k); got != want {
				t.Errorf("node %d, NCL %d: peer set says %v, isCachingNode %v", n, k, got, want)
			}
		}
		if found != member {
			t.Errorf("node %d: peerCandidates = %v, want %v", n, found, member)
		}
	}
}

// inNCLSet is the naive membership test of a scheme.NCLSet.
func inNCLSet(m *scheme.NCLSet, k int) bool {
	if k < 0 || k >= 64*len(m.Bits) {
		return m.Outside
	}
	return m.Bits[k/64]>>(k%64)&1 == 1
}
