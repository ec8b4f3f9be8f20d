package scheme

import (
	"testing"

	"dtncache/internal/workload"
)

// TestReplyTransferZeroAlloc pins the pooled reply records: once warm,
// a reply enqueue on a live contact and its delivery to the requester
// allocate nothing — no per-transfer OnDelivered/OnDropped closures.
//
//dtn:allocfree the measured closure may not allocate
func TestReplyTransferZeroAlloc(t *testing.T) {
	b, env, w := testBase(t)
	// Inside the 0-1 contact of [22000, 22300], clear of the refresh and
	// sweep ticks at 22000 and 22200.
	env.Sim.RunUntil(22001)
	sess := env.Driver.Session(0, 1)
	if sess == nil {
		t.Fatal("no live 0-1 contact")
	}
	q := workload.Query{ID: 0, Requester: 0, Data: 0, Issued: 22000, Deadline: 38000}
	rc := &ReplyCarry{Q: q, Item: w.Data[0]}
	rc.Item.SizeBits = 1000
	dur := env.XferSec(rc.Item.SizeBits)
	delivered := 0
	onReply := ReplyDelivered(func(*ReplyCarry, bool) { delivered++ })
	// AllocsPerRun's warm-up run fills the record pool, the store
	// slices and the inflight map.
	allocs := testing.AllocsPerRun(100, func() {
		b.CarryReply(1, rc)
		b.ForwardReplies(sess, 1, onReply, nil)
		env.Sim.RunUntil(env.Sim.Now() + dur)
	})
	if allocs != 0 {
		t.Errorf("reply enqueue + delivery: %.1f allocs/op, want 0", allocs)
	}
	if delivered != 101 || b.CarriesReply(1, q.ID) || env.Sim.Now() > 22199 {
		t.Fatalf("delivered %d of 101 replies (still carried: %v) by t=%v",
			delivered, b.CarriesReply(1, q.ID), env.Sim.Now())
	}
}

// TestNoCacheContactZeroAlloc pins the baselines' bound query handlers:
// once warm, a NoCache contact start — query and reply forwarding in
// both directions, with a carried query copy visited each time —
// allocates nothing. The handler passed to ForwardQueries is bound once
// in Init, not built per contact direction.
//
//dtn:allocfree the measured closure may not allocate
func TestNoCacheContactZeroAlloc(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr, 21000, 39000, 22000, 38000)
	nc := NewNoCache()
	env, err := NewEnv(testConfig(tr), w, nc)
	if err != nil {
		t.Fatal(err)
	}
	// Inside the 0-1 contact of [22000, 22300], after the query was
	// issued at node 2 (which carries it toward the source, node 0).
	env.Sim.RunUntil(22001)
	sess := env.Driver.Session(0, 1)
	if sess == nil {
		t.Fatal("no live 0-1 contact")
	}
	nc.base.CarryQuery(1, &QueryCarry{Q: w.Queries[0], Target: 0, NCL: -1})
	allocs := testing.AllocsPerRun(100, func() {
		nc.OnContactStart(sess)
	})
	if allocs != 0 {
		t.Errorf("NoCache contact start: %.1f allocs/op, want 0", allocs)
	}
}
