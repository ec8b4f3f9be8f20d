package scheme

import (
	"testing"

	"dtncache/internal/sim"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// testBase builds a Base over a small env without running the sim.
func testBase(t *testing.T) (*Base, *Env, *workload.Workload) {
	t.Helper()
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr, 21000, 39000, 22000, 38000)
	env, err := NewEnv(tr, w, testConfig(tr), NewNoCache(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewBase(env), env, w
}

func TestBaseCarryQueryDedup(t *testing.T) {
	b, env, w := testBase(t)
	env.Sim.RunUntil(22000)
	q := w.Queries[0]
	qc1 := &QueryCarry{Q: q, Target: 0, NCL: -1}
	qc2 := &QueryCarry{Q: q, Target: 0, NCL: -1}
	b.CarryQuery(2, qc1)
	b.CarryQuery(2, qc2) // same key -> ignored
	if got := b.Queries(2); len(got) != 1 {
		t.Fatalf("queries = %d, want 1", len(got))
	}
	// Different target is a distinct copy.
	b.CarryQuery(2, &QueryCarry{Q: q, Target: 1, NCL: -1})
	if got := b.Queries(2); len(got) != 2 {
		t.Fatalf("queries = %d, want 2", len(got))
	}
	b.DropQuery(2, qc1)
	if got := b.Queries(2); len(got) != 1 || got[0].Target != 1 {
		t.Fatalf("after drop: %v", got)
	}
}

func TestBaseCarryQueryRejectsExpired(t *testing.T) {
	b, env, w := testBase(t)
	env.Sim.RunUntil(39000) // past the deadline
	q := w.Queries[0]
	b.CarryQuery(2, &QueryCarry{Q: q, Target: 0})
	if len(b.Queries(2)) != 0 {
		t.Error("expired query carried")
	}
}

func TestBaseCarryReplyDedup(t *testing.T) {
	b, env, w := testBase(t)
	env.Sim.RunUntil(22000)
	rc := &ReplyCarry{Q: w.Queries[0], Item: w.Data[0]}
	b.CarryReply(1, rc)
	b.CarryReply(1, rc)
	if len(b.Replies(1)) != 1 {
		t.Error("duplicate reply carried")
	}
	b.DropReply(1, rc.Q.ID)
	if len(b.Replies(1)) != 0 {
		t.Error("reply not dropped")
	}
}

func TestBaseObserveAndStats(t *testing.T) {
	b, _, _ := testBase(t)
	if s := b.Stats(0, 5); s.Count != 0 {
		t.Error("unknown item has stats")
	}
	b.Observe(0, 5, 100)
	b.Observe(0, 5, 200)
	s := b.Stats(0, 5)
	if s.Count != 2 || s.First != 100 || s.Last != 200 {
		t.Errorf("stats = %+v", s)
	}
	// Stats returns a copy; mutating it must not affect the original.
	s.Count = 99
	if b.Stats(0, 5).Count != 2 {
		t.Error("Stats leaked internal pointer")
	}
}

func TestBaseMarkResponded(t *testing.T) {
	b, _, _ := testBase(t)
	if !b.MarkResponded(1, 7) {
		t.Error("first decision rejected")
	}
	if b.MarkResponded(1, 7) {
		t.Error("second decision allowed")
	}
	if !b.MarkResponded(2, 7) {
		t.Error("per-node independence broken")
	}
}

// TestBaseMarkRespondedBitsetScale drives the responded bitset across
// word boundaries and at preset-scale query IDs: each bit is
// independent, sparse growth pads with zero words, and neighbors stay
// untouched.
func TestBaseMarkRespondedBitsetScale(t *testing.T) {
	b, _, _ := testBase(t)
	// Word boundaries (64-bit words) plus a preset-scale ID; marking in
	// descending-then-ascending order exercises grow-then-fill.
	ids := []workload.QueryID{100000, 63, 64, 127, 128, 0, 65535, 65536}
	for _, id := range ids {
		if !b.MarkResponded(1, id) {
			t.Errorf("first decision for id %d rejected", id)
		}
	}
	for _, id := range ids {
		if b.MarkResponded(1, id) {
			t.Errorf("second decision for id %d allowed", id)
		}
	}
	// Bits adjacent to every marked ID are still free.
	for _, id := range []workload.QueryID{62, 66, 126, 129, 1, 99999, 100001} {
		if !b.MarkResponded(1, id) {
			t.Errorf("unmarked neighbor id %d reads as decided", id)
		}
	}
	// Other nodes share no state.
	if !b.MarkResponded(2, 100000) {
		t.Error("per-node independence broken at scale")
	}
}

// TestBaseSweepExpiredClearsOnlyExpiredBits pins the sweep's bit
// clearing: bits of expired workload queries are released for reuse,
// bits of live queries and of IDs outside the workload stay set.
func TestBaseSweepExpiredClearsOnlyExpiredBits(t *testing.T) {
	b, env, w := testBase(t)
	env.Sim.RunUntil(22000)
	expired := w.Queries[0] // deadline 38000 in testBase's manual workload
	b.MarkResponded(1, expired.ID)
	outside := workload.QueryID(len(w.Queries) + 70) // not in the workload
	b.MarkResponded(1, outside)
	b.SweepExpired(expired.Deadline + 1)
	if !b.MarkResponded(1, expired.ID) {
		t.Error("expired query's bit not cleared")
	}
	if b.MarkResponded(1, outside) {
		t.Error("out-of-workload bit cleared by sweep")
	}
}

func TestBaseSweepExpired(t *testing.T) {
	b, env, w := testBase(t)
	env.Sim.RunUntil(22000)
	q := w.Queries[0]
	b.CarryQuery(2, &QueryCarry{Q: q, Target: 0})
	b.CarryReply(1, &ReplyCarry{Q: q, Item: w.Data[0]})
	b.MarkResponded(1, q.ID)
	b.SweepExpired(q.Deadline + 1)
	if len(b.Queries(2)) != 0 || len(b.Replies(1)) != 0 {
		t.Error("expired carries not swept")
	}
	if !b.MarkResponded(1, q.ID) {
		t.Error("responded flag not cleared with the query")
	}
}

func TestBaseRespond(t *testing.T) {
	b, env, w := testBase(t)
	env.Sim.RunUntil(22000)
	q := w.Queries[0]
	qc := &QueryCarry{Q: q, Target: 0}
	// Node 1 has no data: no response.
	if b.Respond(1, qc, true) {
		t.Error("responded without data")
	}
	// Node 0 is the source: forced response creates a reply.
	if !b.Respond(0, qc, true) {
		t.Error("source did not respond")
	}
	if len(b.Replies(0)) != 1 {
		t.Error("reply not carried")
	}
	// One-shot: a second respond for the same query is refused.
	if b.Respond(0, qc, true) {
		t.Error("double response allowed")
	}
}

func TestBaseRespondAfterDeadline(t *testing.T) {
	b, env, w := testBase(t)
	env.Sim.RunUntil(39500)
	q := w.Queries[0] // deadline 38000
	if b.Respond(0, &QueryCarry{Q: q, Target: 0}, true) {
		t.Error("responded after deadline")
	}
}

func TestBaseQueriesDeterministicOrder(t *testing.T) {
	b, env, w := testBase(t)
	env.Sim.RunUntil(22000)
	q := w.Queries[0]
	for _, target := range []trace.NodeID{1, 0} {
		b.CarryQuery(2, &QueryCarry{Q: q, Target: target})
	}
	got := b.Queries(2)
	if got[0].Target != 0 || got[1].Target != 1 {
		t.Errorf("order = %v, %v", got[0].Target, got[1].Target)
	}
}

// sprayScheme is a minimal scheme that disseminates a single query with
// a spray budget, to exercise Base's spray-and-wait branch directly.
type sprayScheme struct {
	base    *Base
	arrived map[trace.NodeID]bool
}

func (s *sprayScheme) Name() string { return "spray-test" }
func (s *sprayScheme) Init(e *Env) error {
	s.base = NewBase(e)
	s.arrived = make(map[trace.NodeID]bool)
	return nil
}
func (s *sprayScheme) OnData(workload.DataItem) {}
func (s *sprayScheme) OnQuery(q workload.Query) {
	s.base.CarryQuery(q.Requester, &QueryCarry{Q: q, Target: 0, NCL: -1, Copies: 4})
}
func (s *sprayScheme) OnContactStart(sess *sim.Session) {
	for _, from := range []trace.NodeID{sess.A, sess.B} {
		s.base.ForwardQueries(sess, from, func(at trace.NodeID, qc *QueryCarry) {
			s.arrived[at] = true
		})
	}
}
func (s *sprayScheme) OnContactEnd(*sim.Session) {}
func (s *sprayScheme) OnSweep(now float64)       { s.base.SweepExpired(now) }

func TestSprayQueryReplication(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr, 21000, 39000, 22000, 38000)
	s := &sprayScheme{}
	env, err := NewEnv(tr, w, testConfig(tr), s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Right after the first 1-2 contact (t=22500) the spray must have
	// replicated: both the requester (2) and the relay (1) hold copies.
	env.Sim.RunUntil(22800)
	if !s.arrived[1] {
		t.Fatal("sprayed query never replicated to the relay")
	}
	// Replication (not custody transfer): copies coexist at several
	// nodes while the query is live.
	carriers := 0
	for n := trace.NodeID(0); n < 3; n++ {
		if len(s.base.Queries(n)) > 0 {
			carriers++
		}
	}
	if carriers < 2 {
		t.Errorf("replicated copies at %d nodes, want >= 2", carriers)
	}
	// And the copy budget was split, not duplicated.
	if qs := s.base.Queries(2); len(qs) == 1 && qs[0].Copies >= 4 {
		t.Errorf("requester kept the full budget: %d", qs[0].Copies)
	}
	// By the end, the target must have received the query.
	env.Run()
	if !s.arrived[0] {
		t.Error("sprayed query never reached the target")
	}
}

// TestQueryCursorMatchesSearch checks the forward custody cursor
// against the binary search over mixed stores, and that Carries stays
// exact once a removal makes the cursor's answers stale.
func TestQueryCursorMatchesSearch(t *testing.T) {
	b, env, w := testBase(t)
	env.Sim.RunUntil(22000)
	const r = trace.NodeID(2)
	copyOf := func(id, target int) *QueryCarry {
		q := w.Queries[0]
		q.ID = workload.QueryID(id)
		return &QueryCarry{Q: q, Target: trace.NodeID(target)}
	}
	for trial := 0; trial < 6; trial++ {
		b.DropNodeState(r)
		for id := 0; id < 20; id++ {
			for target := 0; target < 3; target++ {
				if (id*5+target+trial)%3 == 0 {
					b.CarryQuery(r, copyOf(id, target))
				}
			}
		}
		cur := b.QueryCursor(r)
		var sent []*QueryCarry
		var held []Custody
		for id := 0; id < 20; id++ {
			for target := 0; target < 3; target++ {
				if (id+target*trial)%2 == 0 {
					qc := copyOf(id, target)
					c := cur.Custody(qc)
					if c.carried != b.CarriesQueryKey(r, qc) {
						t.Fatalf("trial %d: cursor custody of (%d, %d) = %v", trial, id, target, c.carried)
					}
					sent, held = append(sent, qc), append(held, c)
				}
			}
		}
		for _, victim := range []int{0, len(sent) / 2} {
			b.DropQuery(r, sent[victim])
			for i, qc := range sent {
				if got, want := b.Carries(r, qc, held[i]), b.CarriesQueryKey(r, qc); got != want {
					t.Fatalf("trial %d: Carries(%d, %d) = %v after a drop, want %v", trial, qc.Q.ID, qc.Target, got, want)
				}
			}
		}
	}
}
