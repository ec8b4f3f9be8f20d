// Package sim provides the discrete-event simulation engine the
// trace-driven evaluation runs on: an event queue with a virtual clock, a
// contact driver that replays a trace.Trace, and bandwidth-limited
// transfer sessions that model the 2.1 Mb/s Bluetooth links of the
// paper's experiment setup (Sec. VI-A).
//
// The engine is single-goroutine and fully deterministic: events firing
// at the same virtual time are processed in scheduling order.
//
//dtn:determinism
package sim

import (
	"errors"
	"fmt"

	"dtncache/internal/obs"
)

// Time is a virtual timestamp in seconds since the start of the trace.
type Time = float64

// event is one scheduled callback. Events live by value inside the
// heap's backing array — the array doubles as the event pool: a pop
// vacates a slot that the next push reuses, so steady-state
// Schedule/dispatch performs no allocation at all (see DESIGN.md
// "Replay performance").
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// eventHeap is a typed 4-ary min-heap of events ordered by (at, seq):
// earliest timestamp first, scheduling order among equal timestamps. It
// stores events by value: no per-event allocation (the former
// container/heap boxing and the later *event pointers were the hottest
// allocation site of the engine). A 4-ary tree is half as deep as a
// binary one, and sifts move a hole instead of swapping: each level
// costs one struct copy, and the sifted event is written once at the
// end. (at, seq) is a total order, so the arity cannot change the pop
// order.
type eventHeap []event

// before reports whether a dispatches ahead of b.
//
//dtn:allocfree
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

//dtn:allocfree steady state reuses the pooled backing array
func (h *eventHeap) push(e event) {
	//lint:allow allocfree amortized growth: the backing array is the event pool
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !before(&e, &q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

//dtn:allocfree
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top := q[0]
	last := q[n]
	// Clear the vacated slot so the popped callback is not retained by
	// the pool's backing array.
	q[n] = event{}
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	// Sift the hole at the root down, then drop the former last event
	// into it.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if before(&q[c], &q[best]) {
				best = c
			}
		}
		if !before(&q[best], &last) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = last
	return top
}

// Simulator is the event loop. The zero value is not usable; call New.
//
// front is a one-slot buffer of nfront (0 or 1) events that dispatch
// before every event in queue. Most events a replay schedules (a
// session's next transfer completion) are due before anything queued,
// and the slot takes them without a sift. (at, seq) is a total order,
// so the slot cannot change the dispatch order.
type Simulator struct {
	now       Time
	front     event
	nfront    int
	queue     eventHeap
	seq       uint64
	stopped   bool
	processed uint64

	// Observability counters, cached at SetRecorder time. They stay nil
	// when no recorder is attached, and Counter methods are nil-safe,
	// so the dispatch loop pays one predictable branch per event and no
	// allocation either way (asserted by TestDispatchZeroAlloc).
	cEvents *obs.Counter
	cTicks  *obs.Counter
}

// push queues e. An event that sorts ahead of every pending one takes
// the front slot, displacing the slot's event into the heap.
//
//dtn:allocfree
func (s *Simulator) push(e event) {
	if next := s.next(); next != nil && !before(&e, next) {
		s.queue.push(e)
		return
	}
	if s.nfront > 0 {
		s.queue.push(s.front)
	}
	s.front, s.nfront = e, 1
}

// next returns the earliest pending event, or nil when none is.
//
//dtn:allocfree
func (s *Simulator) next() *event {
	if s.nfront > 0 {
		return &s.front
	}
	if len(s.queue) > 0 {
		return &s.queue[0]
	}
	return nil
}

// pop removes the earliest pending event; a vacated slot keeps no
// callback.
//
//dtn:allocfree
func (s *Simulator) pop() event {
	if s.nfront == 0 {
		return s.queue.pop()
	}
	e := s.front
	s.front, s.nfront = event{}, 0
	return e
}

// New creates a simulator with the clock at 0.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// SetRecorder attaches observability counters (sim/events_dispatched,
// sim/ticks) to the event loop. A nil recorder detaches them. The
// counters are registered once here so the per-event cost is a plain
// increment, never a lookup.
func (s *Simulator) SetRecorder(r *obs.Recorder) {
	if r == nil {
		s.cEvents, s.cTicks = nil, nil
		return
	}
	s.cEvents = r.Counter("sim", "events_dispatched")
	s.cTicks = r.Counter("sim", "ticks")
}

// Processed returns the cumulative number of events dispatched over the
// simulator's lifetime (the events/sec numerator of the replay
// benchmarks).
func (s *Simulator) Processed() uint64 { return s.processed }

// ErrPast reports an attempt to schedule an event before the current
// virtual time.
var ErrPast = errors.New("sim: cannot schedule event in the past")

// pastErr builds the ErrPast error for a rejected timestamp. Kept out
// of Schedule so the scheduling fast path stays allocation-free — the
// fmt.Errorf only runs (and allocates) on the failure path.
func (s *Simulator) pastErr(at Time) error {
	return fmt.Errorf("%w: at=%v now=%v", ErrPast, at, s.now)
}

// Schedule runs fn at virtual time at. Events at equal times run in
// scheduling order.
//
//dtn:allocfree the hot scheduling path; error construction is hoisted
func (s *Simulator) Schedule(at Time, fn func()) error {
	if at < s.now {
		return s.pastErr(at)
	}
	s.seq++
	s.push(event{at: at, seq: s.seq, fn: fn})
	return nil
}

// ReservedSeqBase is the sequence floor the contact feeder reserves:
// lazily fed contact-begin events carry explicit sequence numbers below
// it, while every Schedule call after ReserveSeqs draws numbers above
// it. The (at, seq) dispatch order then matches a bulk preload exactly
// — contact begins first among equal timestamps, everything else in
// scheduling order — however far ahead of the clock the source is
// read. 1<<40 leaves room for a trillion contacts.
const ReservedSeqBase uint64 = 1 << 40

// ScheduleSeq runs fn at virtual time at with an explicit sequence
// number instead of the auto-assigned one. It is the lazy feeders'
// tool for event injection: the i-th contact keeps sequence i no
// matter when it is actually pushed. Callers must have reserved the
// explicit range, with ReserveSeqs (the contact feeder, below the
// reserved base) or Reserve (the workload feeder); seq must be unique
// per (at, seq) pair.
//
//dtn:allocfree the streaming feeder path; error construction is hoisted
func (s *Simulator) ScheduleSeq(at Time, seq uint64, fn func()) error {
	if at < s.now {
		return s.pastErr(at)
	}
	s.push(event{at: at, seq: seq, fn: fn})
	return nil
}

// ReserveSeqs raises the auto sequence counter to at least base so
// every subsequent Schedule draws sequence numbers above it, leaving
// [1, base] to ScheduleSeq callers. Idempotent; raising the counter
// never reorders already-queued events.
func (s *Simulator) ReserveSeqs(base uint64) {
	if s.seq < base {
		s.seq = base
	}
}

// Reserve draws n consecutive auto sequence numbers without scheduling
// anything and returns the first. A lazy feeder then pushes its i-th
// event with ScheduleSeq(at, first+i, fn), and that event dispatches
// exactly where a Schedule call made now would have put it, however
// late it is pushed.
func (s *Simulator) Reserve(n int) (first uint64) {
	first = s.seq + 1
	s.seq += uint64(n)
	return first
}

// After runs fn d seconds from now; d must be non-negative.
//
//dtn:allocfree
func (s *Simulator) After(d float64, fn func()) error {
	return s.Schedule(s.now+d, fn)
}

// Every runs fn at start, start+interval, ... until the returned cancel
// function is called or the simulation ends. The repetition reuses a
// single tick closure: each reschedule pushes one by-value event, so a
// running ticker never allocates.
func (s *Simulator) Every(start Time, interval float64, fn func()) (cancel func(), err error) {
	if interval <= 0 {
		return nil, errors.New("sim: Every requires a positive interval")
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		s.cTicks.Inc()
		fn()
		if stopped { // fn may cancel
			return
		}
		// Ignoring the error: now+interval is never in the past.
		_ = s.Schedule(s.now+interval, tick)
	}
	if err := s.Schedule(start, tick); err != nil {
		return nil, err
	}
	return func() { stopped = true }, nil
}

// Stop makes Run/RunUntil return after the current event. The request
// is sticky: a Stop issued while no run is active (e.g. from a callback
// during a previous bounded run, or between runs) makes the next
// Run/RunUntil return immediately. Exactly one run entry consumes each
// Stop; the run after that proceeds normally.
func (s *Simulator) Stop() { s.stopped = true }

// Run processes events until the queue is empty or Stop is called.
// It returns the number of events processed.
func (s *Simulator) Run() int {
	n, _ := s.run(-1, false)
	return n
}

// RunUntil processes every event with timestamp <= t, then advances the
// clock to t. It returns the number of events processed.
func (s *Simulator) RunUntil(t Time) int {
	n, stopped := s.run(t, true)
	if !stopped && t > s.now {
		s.now = t
	}
	return n
}

// run is the dispatch loop shared by Run and RunUntil. It does not
// reset the stopped flag on entry — a Stop requested before the run
// must not be lost — and consumes the flag on exit so one Stop stops
// exactly one run.
//
//dtn:allocfree the per-event dispatch loop (TestDispatchZeroAlloc)
func (s *Simulator) run(t Time, bounded bool) (n int, stopped bool) {
	for !s.stopped {
		if next := s.next(); next == nil || bounded && next.at > t {
			break
		}
		e := s.pop()
		s.now = e.at
		e.fn()
		n++
		s.processed++
		s.cEvents.Inc()
	}
	stopped = s.stopped
	s.stopped = false
	return n, stopped
}

// Pending returns the number of queued events (diagnostics only).
func (s *Simulator) Pending() int { return len(s.queue) + s.nfront }

// NextEventAt returns the timestamp of the earliest queued event, or
// the current time when the queue is empty (the engine's Tick target).
func (s *Simulator) NextEventAt() Time {
	if next := s.next(); next != nil {
		return next.at
	}
	return s.now
}
