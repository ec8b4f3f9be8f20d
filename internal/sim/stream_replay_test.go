package sim

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"dtncache/internal/mathx"
	"dtncache/internal/trace"
	"dtncache/internal/trace/tracetest"
)

// randomContacts builds a sorted contact list with plenty of same-pair
// overlaps so merge behavior is actually exercised.
func randomContacts(n, nodes int, seed int64) []trace.Contact {
	rng := mathx.NewRand(seed)
	cs := make([]trace.Contact, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.Exp(1.0 / 40)
		a := trace.NodeID(rng.Intn(nodes))
		b := trace.NodeID(rng.Intn(nodes - 1))
		if b >= a {
			b++
		}
		cs = append(cs, trace.Contact{A: a, B: b, Start: t, End: t + 30 + rng.Exp(1.0/60)})
	}
	return cs
}

// TestMergeSourceMatchesMergeOverlaps pins the merge the driver feeds
// sessions from: trace.MergeSource must emit exactly the sequence the
// reference materialized merge produces on a replay-shaped fixture.
func TestMergeSourceMatchesMergeOverlaps(t *testing.T) {
	raw := randomContacts(5000, 8, 99)
	want := tracetest.ReferenceMerge(raw)

	src := trace.NewMergeSource(trace.NewSliceSource(raw))
	var got []trace.Contact
	for {
		c, err := src.NextContact()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, c)
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d contacts, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("contact %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if mc := src.MergedCount(); mc != len(raw)-len(want) {
		t.Fatalf("MergedCount = %d, want %d", mc, len(raw)-len(want))
	}
}

// runReplay replays the contacts through a fresh simulator+driver with
// a transfer-generating handler and returns a behavior fingerprint.
func runReplay(t *testing.T, nodes int, duration float64, load func(*Driver) error) (starts []Session, delivered, dropped, merged int, events uint64) {
	t.Helper()
	s := New()
	rec := &recorder{onStart: func(sess *Session) {
		sess.Enqueue(Transfer{From: sess.A, To: sess.B, Bits: 120e3, Label: "q"})
		sess.Enqueue(Transfer{From: sess.B, To: sess.A, Bits: 500e6, Label: "big"}) // mostly won't fit
	}}
	d := NewDriver(s, rec)
	if err := load(d); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(duration)
	if err := d.FeedErr(); err != nil {
		t.Fatal(err)
	}
	delivered, dropped, merged = d.Stats()
	return rec.startCopies, delivered, dropped, merged, s.Processed()
}

// TestLoadStreamMatchesLoad: replaying a raw trace (Load, and
// LoadStream over its contacts) must be event-for-event identical to
// replaying the reference merge of those contacts, which the driver's
// own merge leaves unchanged — same contact sequence, same transfer
// outcomes, same event count.
func TestLoadStreamMatchesLoad(t *testing.T) {
	raw := randomContacts(4000, 10, 7)
	duration := raw[len(raw)-1].End + 100
	tr := &trace.Trace{Name: "t", Nodes: 10, Duration: duration, Contacts: raw}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	ref := tracetest.ReferenceMerge(raw)

	rStarts, rDel, rDrop, rMerged, rEvents := runReplay(t, 10, duration,
		func(d *Driver) error { return d.LoadStream(trace.NewSliceSource(ref)) })
	if rMerged != 0 {
		t.Fatalf("driver merged %d contacts of an already merged list", rMerged)
	}
	if len(rStarts) != len(ref) {
		t.Fatalf("reference replay opened %d contacts, want %d", len(rStarts), len(ref))
	}
	for i, c := range ref {
		if s := rStarts[i]; s.A != c.A || s.B != c.B || s.Start != c.Start || s.End != c.End {
			t.Fatalf("reference contact %d: session %v-%v [%g,%g], want %+v", i, s.A, s.B, s.Start, s.End, c)
		}
	}
	if rDel == 0 || len(ref) == len(raw) {
		t.Fatalf("degenerate fixture: delivered=%d merged=%d", rDel, len(raw)-len(ref))
	}

	for _, leg := range []struct {
		name string
		load func(*Driver) error
	}{
		{"Load", func(d *Driver) error { return d.Load(tr) }},
		{"LoadStream", func(d *Driver) error { return d.LoadStream(trace.NewSliceSource(raw)) }},
	} {
		starts, del, drop, merged, events := runReplay(t, 10, duration, leg.load)
		if del != rDel || drop != rDrop || merged != len(raw)-len(ref) || events != rEvents {
			t.Fatalf("%s (del=%d drop=%d merged=%d events=%d) != reference (del=%d drop=%d merged=%d events=%d)",
				leg.name, del, drop, merged, events, rDel, rDrop, len(raw)-len(ref), rEvents)
		}
		if len(starts) != len(rStarts) {
			t.Fatalf("%s: contact count %d != %d", leg.name, len(starts), len(rStarts))
		}
		for i := range rStarts {
			r, s := rStarts[i], starts[i]
			if r.A != s.A || r.B != s.B || r.Start != s.Start || r.End != s.End {
				t.Fatalf("%s contact %d: %v-%v [%g,%g] != reference %v-%v [%g,%g]",
					leg.name, i, s.A, s.B, s.Start, s.End, r.A, r.B, r.Start, r.End)
			}
		}
	}
}

// TestSessionPoolReuse: sequential contacts must recycle one session
// object instead of allocating per contact.
func TestSessionPoolReuse(t *testing.T) {
	var cs []trace.Contact
	for i := 0; i < 50; i++ {
		start := float64(i * 100)
		cs = append(cs, trace.Contact{A: 0, B: 1, Start: start, End: start + 50})
	}
	tr := &trace.Trace{Name: "t", Nodes: 2, Duration: 6000, Contacts: cs}

	s := New()
	rec := &recorder{}
	d := NewDriver(s, rec)
	if err := d.Load(tr); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(tr.Duration)
	if len(rec.starts) != 50 || len(rec.ends) != 50 {
		t.Fatalf("starts=%d ends=%d, want 50/50", len(rec.starts), len(rec.ends))
	}
	for i, p := range rec.starts {
		if p != rec.starts[0] {
			t.Fatalf("contact %d used a different session object; pool did not recycle", i)
		}
	}
	if len(d.free) != 1 {
		t.Fatalf("free list holds %d sessions, want 1", len(d.free))
	}
}

// TestSessionPoolSurvivesCloseNode: a force-closed session must not be
// recycled until its originally scheduled end event has fired, and its
// ContactEnd must fire exactly once.
func TestSessionPoolSurvivesCloseNode(t *testing.T) {
	tr := &trace.Trace{Name: "t", Nodes: 3, Duration: 1000, Contacts: []trace.Contact{
		{A: 0, B: 1, Start: 10, End: 200},
		{A: 0, B: 2, Start: 50, End: 90}, // begins while 0-1 is force-closed but its end event is pending
	}}
	s := New()
	rec := &recorder{}
	d := NewDriver(s, rec)
	if err := d.Load(tr); err != nil {
		t.Fatal(err)
	}
	_ = s.Schedule(30, func() {
		if n := d.CloseNode(0); n != 1 {
			t.Errorf("CloseNode closed %d sessions, want 1", n)
		}
	})
	s.RunUntil(tr.Duration)
	if len(rec.starts) != 2 || len(rec.ends) != 2 {
		t.Fatalf("starts=%d ends=%d, want 2/2", len(rec.starts), len(rec.ends))
	}
	// The 0-2 contact began at t=50, before the 0-1 end event at t=200:
	// the force-closed session was still owed its end event, so the
	// driver must have allocated a fresh object for 0-2.
	if rec.starts[1] == rec.starts[0] {
		t.Fatal("session recycled while its end event was still pending")
	}
	if got := rec.startCopies[1]; got.A != 0 || got.B != 2 {
		t.Fatalf("second contact is %v-%v, want 0-2", got.A, got.B)
	}
	if len(d.free) != 2 {
		t.Fatalf("free list holds %d sessions, want 2", len(d.free))
	}
}

// failAfterSource yields n contacts, then a terminal error.
type failAfterSource struct {
	cs  []trace.Contact
	i   int
	err error
}

func (f *failAfterSource) NextContact() (trace.Contact, error) {
	if f.i >= len(f.cs) {
		return trace.Contact{}, f.err
	}
	c := f.cs[f.i]
	f.i++
	return c, nil
}

// TestLoadStreamFeedError: a source error mid-replay must stop the run
// and surface through FeedErr; contacts decoded before the error are
// still replayed.
func TestLoadStreamFeedError(t *testing.T) {
	raw := randomContacts(100, 4, 3)
	boom := fmt.Errorf("stream corrupted")
	src := &failAfterSource{cs: raw, err: boom}

	s := New()
	rec := &recorder{}
	d := NewDriver(s, rec)
	if err := d.LoadStream(src); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(raw[len(raw)-1].End + 1000)
	if !errors.Is(d.FeedErr(), boom) {
		t.Fatalf("FeedErr = %v, want %v", d.FeedErr(), boom)
	}
	if len(rec.starts) == 0 {
		t.Fatal("no contacts replayed before the error")
	}
}

// TestDriverLoadTwiceFails: a driver accepts exactly one contact feed.
func TestDriverLoadTwiceFails(t *testing.T) {
	tr := twoNodeTrace(10, 50)
	s := New()
	d := NewDriver(s, &recorder{})
	if err := d.Load(tr); err != nil {
		t.Fatal(err)
	}
	if err := d.Load(tr); err == nil {
		t.Fatal("second Load should fail")
	}
	if err := d.LoadStream(trace.NewSliceSource(tr.Contacts)); err == nil {
		t.Fatal("LoadStream after Load should fail")
	}
}
