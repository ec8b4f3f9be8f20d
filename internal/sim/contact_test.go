package sim

import (
	"slices"
	"testing"

	"dtncache/internal/trace"
)

// recorder is a Handler that records contact lifecycle events and
// optionally reacts to contact starts. Sessions may be recycled after
// ContactEnd, so post-run assertions on contact fields use the value
// copies in startCopies, not the pointers.
type recorder struct {
	starts, ends []*Session
	startCopies  []Session
	onStart      func(*Session)
}

func (r *recorder) ContactStart(s *Session) {
	r.starts = append(r.starts, s)
	r.startCopies = append(r.startCopies, *s)
	if r.onStart != nil {
		r.onStart(s)
	}
}

func (r *recorder) ContactEnd(s *Session) { r.ends = append(r.ends, s) }

func twoNodeTrace(start, end float64) *trace.Trace {
	return &trace.Trace{
		Name: "t", Nodes: 2, Duration: end + 100,
		Contacts: []trace.Contact{{A: 0, B: 1, Start: start, End: end}},
	}
}

func TestDriverContactLifecycle(t *testing.T) {
	s := New()
	rec := &recorder{}
	d := NewDriver(s, rec)
	if err := d.Load(twoNodeTrace(10, 50)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(rec.starts) != 1 || len(rec.ends) != 1 {
		t.Fatalf("starts=%d ends=%d", len(rec.starts), len(rec.ends))
	}
	if rec.starts[0] != rec.ends[0] {
		t.Error("start and end should reference the same session")
	}
	if !rec.ends[0].Closed() {
		t.Error("session should be closed at ContactEnd")
	}
}

func TestDriverRejectsInvalidTrace(t *testing.T) {
	s := New()
	d := NewDriver(s, &recorder{})
	bad := &trace.Trace{Nodes: 0}
	if err := d.Load(bad); err == nil {
		t.Error("want error for invalid trace")
	}
}

func TestTransferDelivery(t *testing.T) {
	s := New()
	var deliveredAt Time
	rec := &recorder{onStart: func(sess *Session) {
		ok := sess.Enqueue(Transfer{
			From: 0, To: 1, Bits: 2.1e6, // exactly 1 second at default bandwidth
			OnDelivered: func(at Time) { deliveredAt = at },
		})
		if !ok {
			t.Error("enqueue failed")
		}
	}}
	d := NewDriver(s, rec)
	if err := d.Load(twoNodeTrace(10, 50)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if deliveredAt != 11 {
		t.Errorf("delivered at %v, want 11", deliveredAt)
	}
	del, drop, _ := d.Stats()
	if del != 1 || drop != 0 {
		t.Errorf("stats = %d delivered %d dropped", del, drop)
	}
}

func TestTransferSerialSharing(t *testing.T) {
	// Two 1-second transfers must complete at t=11 and t=12.
	s := New()
	var times []Time
	rec := &recorder{onStart: func(sess *Session) {
		for i := 0; i < 2; i++ {
			sess.Enqueue(Transfer{
				From: 0, To: 1, Bits: 2.1e6,
				OnDelivered: func(at Time) { times = append(times, at) },
			})
		}
	}}
	d := NewDriver(s, rec)
	if err := d.Load(twoNodeTrace(10, 50)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(times) != 2 || times[0] != 11 || times[1] != 12 {
		t.Errorf("delivery times = %v, want [11 12]", times)
	}
}

func TestTransferDroppedWhenContactTooShort(t *testing.T) {
	s := New()
	var dropped, delivered int
	rec := &recorder{onStart: func(sess *Session) {
		sess.Enqueue(Transfer{
			From: 0, To: 1, Bits: 100 * 2.1e6, // needs 100s, contact is 5s
			OnDelivered: func(Time) { delivered++ },
			OnDropped:   func(Time) { dropped++ },
		})
	}}
	d := NewDriver(s, rec)
	if err := d.Load(twoNodeTrace(10, 15)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if delivered != 0 || dropped != 1 {
		t.Errorf("delivered=%d dropped=%d, want 0/1", delivered, dropped)
	}
}

func TestTransferChaining(t *testing.T) {
	// OnDelivered enqueues a follow-up transfer on the same session.
	s := New()
	var times []Time
	rec := &recorder{onStart: func(sess *Session) {
		sess.Enqueue(Transfer{
			From: 0, To: 1, Bits: 2.1e6,
			OnDelivered: func(at Time) {
				times = append(times, at)
				sess.Enqueue(Transfer{
					From: 1, To: 0, Bits: 2.1e6,
					OnDelivered: func(at2 Time) { times = append(times, at2) },
				})
			},
		})
	}}
	d := NewDriver(s, rec)
	if err := d.Load(twoNodeTrace(10, 50)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(times) != 2 || times[0] != 11 || times[1] != 12 {
		t.Errorf("times = %v, want [11 12]", times)
	}
}

func TestEnqueueValidation(t *testing.T) {
	s := New()
	var sess *Session
	rec := &recorder{onStart: func(ss *Session) { sess = ss }}
	d := NewDriver(s, rec)
	if err := d.Load(twoNodeTrace(10, 20)); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(15)
	if sess == nil {
		t.Fatal("no session")
	}
	if sess.Enqueue(Transfer{From: 0, To: 5, Bits: 1}) {
		t.Error("enqueue with foreign endpoint should fail")
	}
	if sess.Enqueue(Transfer{From: 0, To: 1, Bits: -1}) {
		t.Error("enqueue with negative size should fail")
	}
	s.Run()
	if sess.Enqueue(Transfer{From: 0, To: 1, Bits: 1}) {
		t.Error("enqueue on closed session should fail")
	}
}

func TestZeroSizeTransferCompletesImmediately(t *testing.T) {
	s := New()
	var at Time = -1
	rec := &recorder{onStart: func(sess *Session) {
		sess.Enqueue(Transfer{From: 0, To: 1, Bits: 0,
			OnDelivered: func(a Time) { at = a }})
	}}
	d := NewDriver(s, rec)
	if err := d.Load(twoNodeTrace(10, 20)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if at != 10 {
		t.Errorf("zero-size delivery at %v, want 10", at)
	}
}

func TestSessionAccessors(t *testing.T) {
	s := New()
	rec := &recorder{onStart: func(sess *Session) {
		sess.Enqueue(Transfer{From: 0, To: 1, Bits: 2.1e6})
	}}
	d := NewDriver(s, rec)
	if err := d.Load(twoNodeTrace(10, 20)); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(12)
	sess := d.Session(1, 0) // order independent
	if sess == nil {
		t.Fatal("Session lookup failed")
	}
	if sess.Peer(0) != 1 || sess.Peer(1) != 0 || sess.Peer(9) != -1 {
		t.Error("Peer wrong")
	}
	if sess.SentBits() != 2.1e6 {
		t.Errorf("SentBits = %v", sess.SentBits())
	}
	peers := d.ActivePeers(0)
	if len(peers) != 1 || peers[0] != 1 {
		t.Errorf("ActivePeers = %v", peers)
	}
	s.Run()
	if d.Session(0, 1) != nil {
		t.Error("session should be removed after contact end")
	}
}

func TestOverlappingContactsMerged(t *testing.T) {
	tr := &trace.Trace{
		Name: "t", Nodes: 2, Duration: 200,
		Contacts: []trace.Contact{
			{A: 0, B: 1, Start: 10, End: 50},
			{A: 0, B: 1, Start: 40, End: 80}, // overlaps -> merged to [10,80]
			{A: 0, B: 1, Start: 100, End: 120},
		},
	}
	s := New()
	rec := &recorder{}
	d := NewDriver(s, rec)
	if err := d.Load(tr); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(rec.starts) != 2 {
		t.Fatalf("contacts after merge = %d, want 2", len(rec.starts))
	}
	if rec.startCopies[0].End != 80 {
		t.Errorf("merged end = %v, want 80", rec.startCopies[0].End)
	}
	_, _, merged := d.Stats()
	if merged != 1 {
		t.Errorf("merged = %d, want 1", merged)
	}
}

// killProbe is a FaultProbe that kills every transfer and nothing else.
type killProbe struct{}

func (killProbe) NodeDown(trace.NodeID) bool                                    { return false }
func (killProbe) TruncateContact(c trace.Contact) Time                          { return c.End }
func (killProbe) KillTransfer(trace.NodeID, trace.NodeID, float64, string) bool { return true }

func TestFailureInjection(t *testing.T) {
	// A probe that kills every transfer must drop it even though it fits.
	s := New()
	var dropped int
	rec := &recorder{onStart: func(sess *Session) {
		sess.Enqueue(Transfer{From: 0, To: 1, Bits: 1000,
			OnDropped: func(Time) { dropped++ }})
	}}
	d := NewDriver(s, rec, WithFaults(killProbe{}))
	if err := d.Load(twoNodeTrace(10, 50)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	_, dropStat, _ := d.Stats()
	if dropStat != 1 {
		t.Errorf("dropped stat = %d, want 1", dropStat)
	}
}

func TestCustomBandwidth(t *testing.T) {
	s := New()
	var at Time
	rec := &recorder{onStart: func(sess *Session) {
		sess.Enqueue(Transfer{From: 0, To: 1, Bits: 1000,
			OnDelivered: func(a Time) { at = a }})
	}}
	d := NewDriver(s, rec, WithBandwidth(100)) // 10 seconds for 1000 bits
	if err := d.Load(twoNodeTrace(10, 50)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if at != 20 {
		t.Errorf("delivered at %v, want 20", at)
	}
}

func TestMidContactEnqueueFromOutside(t *testing.T) {
	// A transfer enqueued by an external event while the contact is
	// active must be carried.
	s := New()
	var at Time
	rec := &recorder{}
	d := NewDriver(s, rec)
	if err := d.Load(twoNodeTrace(10, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(30, func() {
		sess := d.Session(0, 1)
		if sess == nil {
			t.Error("expected active session at t=30")
			return
		}
		sess.Enqueue(Transfer{From: 1, To: 0, Bits: 2.1e6,
			OnDelivered: func(a Time) { at = a }})
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if at != 31 {
		t.Errorf("delivered at %v, want 31", at)
	}
}

// callbackTally tracks, per transfer, how often each completion
// callback fired.
type callbackTally struct {
	delivered, dropped []int
	accepted           []bool
	// afterDelivery, when set, runs after a delivery is counted.
	afterDelivery func(id int)
}

// enqueue offers a transfer of the given service time (seconds at the
// default bandwidth) and records whether the session accepted it.
func (c *callbackTally) enqueue(sess *Session, from, to trace.NodeID, secs float64, label string) int {
	id := len(c.accepted)
	c.delivered = append(c.delivered, 0)
	c.dropped = append(c.dropped, 0)
	ok := sess.Enqueue(Transfer{From: from, To: to, Bits: secs * DefaultBandwidth, Label: label,
		OnDelivered: func(Time) {
			c.delivered[id]++
			if c.afterDelivery != nil {
				c.afterDelivery(id)
			}
		},
		OnDropped: func(Time) { c.dropped[id]++ }})
	c.accepted = append(c.accepted, ok)
	return id
}

// labelKillProbe is a FaultProbe that kills only transfers carrying
// its label.
type labelKillProbe string

func (labelKillProbe) NodeDown(trace.NodeID) bool           { return false }
func (labelKillProbe) TruncateContact(c trace.Contact) Time { return c.End }
func (p labelKillProbe) KillTransfer(_, _ trace.NodeID, _ float64, label string) bool {
	return label == string(p)
}

// TestEnqueuedTransferFiresExactlyOnce pins the completion contract
// pooled transfer records rely on: every transfer Enqueue accepted
// fires exactly one of OnDelivered/OnDropped, whatever ends it, and a
// rejected transfer fires neither.
func TestEnqueuedTransferFiresExactlyOnce(t *testing.T) {
	cases := []struct {
		name       string
		start, end float64
		opts       []DriverOption
		// run enqueues on the opening session; it may schedule further
		// events on the simulator.
		run            func(c *callbackTally, s *Simulator, d *Driver, sess *Session)
		wantDelivered  int
		wantDroppedIDs []int
	}{
		{
			name: "delivered, chained from a callback", start: 10, end: 50,
			run: func(c *callbackTally, _ *Simulator, _ *Driver, sess *Session) {
				a := c.enqueue(sess, 0, 1, 1, "a")
				c.enqueue(sess, 1, 0, 1, "b")
				c.afterDelivery = func(id int) {
					if id == a {
						c.enqueue(sess, 0, 1, 1, "c")
					}
				}
			},
			wantDelivered: 3,
		},
		{
			name: "contact ends with a queue", start: 10, end: 12.5,
			run: func(c *callbackTally, _ *Simulator, _ *Driver, sess *Session) {
				for i := 0; i < 4; i++ {
					c.enqueue(sess, 0, 1, 1, "q")
				}
			},
			wantDelivered: 2, wantDroppedIDs: []int{2, 3},
		},
		{
			name: "unfitting head", start: 10, end: 12,
			run: func(c *callbackTally, _ *Simulator, _ *Driver, sess *Session) {
				c.enqueue(sess, 0, 1, 5, "big")
				c.enqueue(sess, 1, 0, 0.5, "small")
			},
			wantDroppedIDs: []int{0, 1},
		},
		{
			name: "fault KillTransfer", start: 10, end: 50, opts: []DriverOption{WithFaults(labelKillProbe("kill"))},
			run: func(c *callbackTally, _ *Simulator, _ *Driver, sess *Session) {
				c.enqueue(sess, 0, 1, 1, "ok")
				c.enqueue(sess, 0, 1, 1, "kill")
				c.enqueue(sess, 1, 0, 1, "ok")
			},
			wantDelivered: 2, wantDroppedIDs: []int{1},
		},
		{
			name: "CloseNode mid-transfer", start: 10, end: 50,
			run: func(c *callbackTally, s *Simulator, d *Driver, sess *Session) {
				c.enqueue(sess, 0, 1, 1, "inflight")
				c.enqueue(sess, 1, 0, 1, "queued")
				c.enqueue(sess, 0, 1, 1, "queued")
				_ = s.Schedule(10.5, func() {
					if n := d.CloseNode(0); n != 1 {
						t.Errorf("CloseNode closed %d sessions, want 1", n)
					}
					// The closed session rejects further transfers.
					c.enqueue(sess, 0, 1, 1, "late")
				})
			},
			wantDroppedIDs: []int{0, 1, 2},
		},
		{
			name: "rejected endpoints", start: 10, end: 50,
			run: func(c *callbackTally, _ *Simulator, _ *Driver, sess *Session) {
				c.enqueue(sess, 0, 0, 1, "loop")
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			c := &callbackTally{}
			var d *Driver
			rec := &recorder{onStart: func(sess *Session) { tc.run(c, s, d, sess) }}
			d = NewDriver(s, rec, tc.opts...)
			if err := d.Load(twoNodeTrace(tc.start, tc.end)); err != nil {
				t.Fatal(err)
			}
			s.Run()
			delivered := 0
			var dropped []int
			for id, ok := range c.accepted {
				fired := c.delivered[id] + c.dropped[id]
				switch {
				case ok && fired != 1:
					t.Errorf("transfer %d: delivered %d + dropped %d callbacks, want exactly 1",
						id, c.delivered[id], c.dropped[id])
				case !ok && fired != 0:
					t.Errorf("rejected transfer %d fired %d callbacks", id, fired)
				}
				delivered += c.delivered[id]
				if c.dropped[id] > 0 {
					dropped = append(dropped, id)
				}
			}
			if delivered != tc.wantDelivered {
				t.Errorf("delivered %d, want %d", delivered, tc.wantDelivered)
			}
			if !slices.Equal(dropped, tc.wantDroppedIDs) {
				t.Errorf("dropped %v, want %v", dropped, tc.wantDroppedIDs)
			}
		})
	}
}
