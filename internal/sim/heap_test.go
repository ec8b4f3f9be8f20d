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
// (delay >= 0, child id) pair — from inside its callback.
type heapPlan struct {
	roots []Time
	kids  [][]heapKid
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
// against referenceOrder.
func runInterleavedTrial(t *testing.T, p *heapPlan) {
	t.Helper()
	s := New()
	var got []int
	var fire func(id int) func()
	fire = func(id int) func() {
		return func() {
			got = append(got, id)
			for _, k := range p.kids[id] {
				if err := s.Schedule(s.Now()+k.delay, fire(k.id)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for id, at := range p.roots {
		if err := s.Schedule(at, fire(id)); err != nil {
			t.Fatal(err)
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
// events and with each other.
func TestEventHeapInterleavedMatchesReference(t *testing.T) {
	rng := mathx.NewRand(7)
	for trial := 0; trial < 6; trial++ {
		roots := 1500 + rng.Intn(3000)
		p := &heapPlan{roots: make([]Time, roots), kids: make([][]heapKid, roots)}
		for i := range p.roots {
			p.roots[i] = Time(rng.Intn(1 + trial*50))
		}
		total := roots * 3
		for id := 0; id < len(p.kids) && len(p.kids) < total; id++ {
			for c := rng.Intn(4); c > 0; c-- {
				p.spawn(id, Time(rng.Intn(8)))
			}
		}
		runInterleavedTrial(t, p)
	}
}

// FuzzEventHeapOrdering fuzzes raw byte strings into interleaved heap
// plans: the first byte sets how many roots there are, the next bytes
// their timestamps, and every later byte gives one event (in id order)
// up to three children with small delays. The reference-sort property
// must hold for pushes made during dispatch as well as before it.
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
