package sim

import (
	"sort"
	"testing"

	"dtncache/internal/mathx"
)

// runHeapTrial schedules the given timestamps in order and checks that
// dispatch replays them exactly as a stable sort by (at, scheduling
// order) would — the (at, seq) min-heap contract.
func runHeapTrial(t *testing.T, times []Time) {
	t.Helper()
	type rec struct {
		at  Time
		idx int
	}
	want := make([]rec, len(times))
	s := New()
	var got []rec
	for i, at := range times {
		i, at := i, at
		want[i] = rec{at: at, idx: i}
		if err := s.Schedule(at, func() { got = append(got, rec{at: s.Now(), idx: i}) }); err != nil {
			t.Fatal(err)
		}
	}
	sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
	if n := s.Run(); n != len(times) {
		t.Fatalf("processed %d events, want %d", n, len(times))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch[%d] = %+v, want %+v (input %v)", i, got[i], want[i], times)
		}
	}
}

// TestEventHeapMatchesReferenceSort drives random (at, seq)
// interleavings — many duplicate timestamps to stress tie-breaking —
// against the reference stable sort.
func TestEventHeapMatchesReferenceSort(t *testing.T) {
	rng := mathx.NewRand(42)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		// Small timestamp universe forces collisions, so the seq
		// tie-break does real work.
		universe := 1 + rng.Intn(8)
		times := make([]Time, n)
		for i := range times {
			times[i] = Time(rng.Intn(universe))
		}
		runHeapTrial(t, times)
	}
}

// heapPlan is an interleaved heap workload: roots are scheduled before
// the run, and when event id dispatches it schedules kids[id] — each a
// (delay >= 0, child id) pair — from inside its callback. An event
// with viaSeq[id] set draws its sequence number with Reserve where it
// would have called Schedule, and is pushed with ScheduleSeq only
// after the rest of its batch, as the lazy feeders push theirs. The
// run advances through RunUntil at each of the ascending steps, then
// drains with Run.
type heapPlan struct {
	roots  []Time
	kids   [][]heapKid
	viaSeq []bool
	steps  []Time
}

type heapKid struct {
	delay Time
	id    int
}

// spawn appends a new event to the plan as a child of parent and
// returns its id.
func (p *heapPlan) spawn(parent int, delay Time) int {
	id := len(p.kids)
	p.kids = append(p.kids, nil)
	p.kids[parent] = append(p.kids[parent], heapKid{delay: delay, id: id})
	return id
}

// seqFlag reports whether event id enters through ScheduleSeq.
func (p *heapPlan) seqFlag(id int) bool { return id < len(p.viaSeq) && p.viaSeq[id] }

// pendingAt returns what Pending and NextEventAt must report once
// RunUntil(h) returns: every event due by h has dispatched, so the
// pending ones are those due after h whose parent (if any) was due by h.
func (p *heapPlan) pendingAt(h Time) (n int, next Time) {
	at := make([]Time, len(p.kids))
	copy(at, p.roots)
	next = h
	pending := func(t Time) {
		if n == 0 || t < next {
			next = t
		}
		n++
	}
	for id := range p.kids {
		if id < len(p.roots) && at[id] > h {
			pending(at[id])
		}
		for _, k := range p.kids[id] {
			at[k.id] = at[id] + k.delay
			if at[id] <= h && at[k.id] > h {
				pending(at[k.id])
			}
		}
	}
	return n, next
}

// referenceOrder replays the plan against a sorted slice: pending
// events ordered by (at, seq), seq assigned in scheduling order, the
// earliest removed first.
func (p *heapPlan) referenceOrder() []int {
	type ref struct {
		at  Time
		seq uint64
		id  int
	}
	var pending []ref
	var seq uint64
	insert := func(at Time, id int) {
		seq++
		r := ref{at: at, seq: seq, id: id}
		i := sort.Search(len(pending), func(i int) bool {
			return pending[i].at > r.at || (pending[i].at == r.at && pending[i].seq > r.seq)
		})
		pending = append(pending, ref{})
		copy(pending[i+1:], pending[i:])
		pending[i] = r
	}
	for id, at := range p.roots {
		insert(at, id)
	}
	var order []int
	for len(pending) > 0 {
		r := pending[0]
		pending = pending[1:]
		order = append(order, r.id)
		for _, k := range p.kids[r.id] {
			insert(r.at+k.delay, k.id)
		}
	}
	return order
}

// runInterleavedTrial runs the plan on a Simulator, scheduling each
// event's children from its callback, and checks the dispatch order
// against referenceOrder and the pending count and next due time
// against pendingAt between RunUntil steps.
func runInterleavedTrial(t *testing.T, p *heapPlan) {
	t.Helper()
	s := New()
	var got []int
	var fire func(id int) func()
	// schedule queues a batch at base+delay in order; deferred
	// ScheduleSeq pushes land after the batch, latest reservation first.
	schedule := func(batch []heapKid, base Time) {
		var late []heapKid
		var seqs []uint64
		for _, k := range batch {
			if p.seqFlag(k.id) {
				late, seqs = append(late, k), append(seqs, s.Reserve(1))
			} else if err := s.Schedule(base+k.delay, fire(k.id)); err != nil {
				t.Fatal(err)
			}
		}
		for i := len(late) - 1; i >= 0; i-- {
			if err := s.ScheduleSeq(base+late[i].delay, seqs[i], fire(late[i].id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	fire = func(id int) func() {
		return func() {
			got = append(got, id)
			schedule(p.kids[id], s.Now())
		}
	}
	roots := make([]heapKid, len(p.roots))
	for id, at := range p.roots {
		roots[id] = heapKid{delay: at, id: id}
	}
	schedule(roots, 0)
	for _, h := range p.steps {
		s.RunUntil(h)
		n, next := p.pendingAt(h)
		if s.Pending() != n || s.NextEventAt() != next {
			t.Fatalf("after RunUntil(%v): Pending %d, NextEventAt %v; reference %d, %v",
				h, s.Pending(), s.NextEventAt(), n, next)
		}
	}
	s.Run()
	want := p.referenceOrder()
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch[%d] = event %d, reference event %d", i, got[i], want[i])
		}
	}
}

// TestEventHeapInterleavedMatchesReference pushes from inside dispatch
// (pop-after-push at every step) with thousands of queued events, so
// sifts cross five and more levels of the 4-ary tree. Delays come from
// a small universe, zero included, so many children tie with queued
// events and with each other. The sparse trials keep a handful of
// events pending with long delays, so a new event often sorts ahead of
// all of them and the front slot is busy when a RunUntil step ends.
func TestEventHeapInterleavedMatchesReference(t *testing.T) {
	rng := mathx.NewRand(7)
	for trial := 0; trial < 12; trial++ {
		sparse := trial >= 6
		roots, delays, span := 1500+rng.Intn(3000), 8, 1+trial*50
		total := roots * 3
		if sparse {
			roots, delays, span, total = 1+rng.Intn(8), 48, 200, 400
		}
		p := &heapPlan{roots: make([]Time, roots), kids: make([][]heapKid, roots)}
		for i := range p.roots {
			p.roots[i] = Time(rng.Intn(span))
		}
		for id := 0; id < len(p.kids) && len(p.kids) < total; id++ {
			c := rng.Intn(4)
			if sparse {
				c = 1 + rng.Intn(2)
			}
			for ; c > 0; c-- {
				p.spawn(id, Time(rng.Intn(delays)))
			}
		}
		for range p.kids {
			p.viaSeq = append(p.viaSeq, rng.Intn(3) == 0)
		}
		for h := Time(rng.Intn(4)); h < Time(span+20*delays); h += Time(1+rng.Intn(16)) / 2 {
			p.steps = append(p.steps, h)
		}
		runInterleavedTrial(t, p)
	}
}

// FuzzEventHeapOrdering fuzzes raw byte strings into interleaved heap
// plans: the first byte sets how many roots there are, the next bytes
// their timestamps, and every later byte gives one event (in id order)
// up to three children with small delays. Bit 4 of the byte at an
// event's id (wrapping) sends it through Reserve and ScheduleSeq, and
// the first byte also sets the RunUntil stride. The reference-sort
// property must hold for pushes made during dispatch as well as before
// it, and between steps Pending and NextEventAt must match.
func FuzzEventHeapOrdering(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 1, 0})
	f.Add([]byte{5, 4, 3, 2, 1, 0, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{255, 0, 255, 0, 7})
	f.Add([]byte{3, 1, 1, 1, 0x1b, 0x2e, 0x3f, 0x00, 0x27, 0x11, 0x3c})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 4096 {
			t.Skip()
		}
		nroots := 1 + int(raw[0])%len(raw)
		if nroots > len(raw)-1 {
			nroots = len(raw) - 1
		}
		p := &heapPlan{}
		for _, b := range raw[1 : 1+nroots] {
			p.roots = append(p.roots, Time(b%16)) // dense universe: exercise ties
			p.kids = append(p.kids, nil)
		}
		if len(p.roots) == 0 {
			t.Skip()
		}
		for i, b := range raw[1+nroots:] {
			if i >= len(p.kids) || len(p.kids) > 8192 {
				break
			}
			// Two bits of child count, then up to three 2-bit delays.
			for c := 0; c < int(b&3); c++ {
				p.spawn(i, Time((b>>(2+2*c))&3))
			}
		}
		for id := range p.kids {
			p.viaSeq = append(p.viaSeq, raw[id%len(raw)]&0x10 != 0)
		}
		for h := Time(raw[0] % 3); h < 16+3*Time(len(p.kids)); h += Time(1+raw[0]%4) / 2 {
			p.steps = append(p.steps, h)
		}
		runInterleavedTrial(t, p)
	})
}

// TestHeapPopClearsSlot checks the pool invariant: a popped slot in the
// backing array must not retain the event's callback.
func TestHeapPopClearsSlot(t *testing.T) {
	var h eventHeap
	h.push(event{at: 1, seq: 1, fn: func() {}})
	h.push(event{at: 2, seq: 2, fn: func() {}})
	h.pop()
	h.pop()
	backing := h[:cap(h)]
	for i := range backing {
		if backing[i].fn != nil {
			t.Fatalf("slot %d retains callback after pop", i)
		}
	}
}

// TestFrontSlotClearedAfterDispatch extends the pool invariant to the
// front slot: once dispatched, neither the slot nor the heap slot of
// the event it displaced retains a callback.
func TestFrontSlotClearedAfterDispatch(t *testing.T) {
	s := New()
	fn := func() {}
	_ = s.Schedule(2, fn)
	_ = s.Schedule(1, fn) // displaces the slot's event into the heap
	if s.nfront != 1 || s.front.at != 1 || len(s.queue) != 1 || s.Pending() != 2 {
		t.Fatalf("slot holds %d at %v, heap %d, pending %d; want the t=1 event in the slot ahead of one heap event",
			s.nfront, s.front.at, len(s.queue), s.Pending())
	}
	s.Run()
	if s.nfront != 0 || s.front.fn != nil {
		t.Fatal("front slot retains its callback after dispatch")
	}
	for i, e := range s.queue[:cap(s.queue)] {
		if e.fn != nil {
			t.Fatalf("heap slot %d retains callback after dispatch", i)
		}
	}
}
