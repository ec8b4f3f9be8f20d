package sim

import (
	"errors"
	"io"
	"sort"

	"dtncache/internal/obs"
	"dtncache/internal/trace"
)

// Transfer is one message movement over an active contact. Sizes are in
// bits so they divide naturally by the link bandwidth in bits/second.
type Transfer struct {
	// From and To are the endpoints; both must belong to the session.
	From, To trace.NodeID
	// Bits is the message size; zero-size transfers complete immediately.
	Bits float64
	// Label tags the transfer for diagnostics and fault probes ("push",
	// "query", ...).
	Label string
	// OnDelivered fires when the transfer completes. It may enqueue
	// further transfers on the same (or another active) session.
	OnDelivered func(at Time)
	// OnDropped fires if the contact ends (or failure injection strikes)
	// before the transfer completes. Optional. For every transfer
	// Enqueue accepts, exactly one of OnDelivered and OnDropped fires
	// once the simulation runs past the contact's end, so callers may
	// recycle per-transfer state in either.
	OnDropped func(at Time)
}

// Session is one active contact with a serially-shared link, mirroring a
// Bluetooth pairing: transfers are served FIFO at the configured
// bandwidth and anything unfinished when the contact ends is dropped.
type Session struct {
	A, B       trace.NodeID
	Start, End Time

	driver   *Driver
	queue    []Transfer
	head     int // first unserved queue index; the prefix is spent
	busy     bool
	closed   bool
	sentBits float64

	// At most one transfer is in flight per session (the link is serial),
	// so its completion state lives on the session and onDone — a method
	// value created once per session — replaces a per-transfer closure.
	cur        Transfer
	curDropped bool
	onDone     func()

	// Pooling state. A session returns to the driver's free list only
	// when all three hold: the contact closed, its originally scheduled
	// end event fired (endFired), and no transfer is in flight. Waiting
	// for endFired means a force-closed session is never recycled while
	// its end event still points at it, so no generation counter is
	// needed. onEnd is the scheduled end event, a method value created
	// once per session object like onDone.
	endFired bool
	pooled   bool
	onEnd    func()
}

// Peer returns the other endpoint, or -1 if n is not part of the session.
func (s *Session) Peer(n trace.NodeID) trace.NodeID {
	switch n {
	case s.A:
		return s.B
	case s.B:
		return s.A
	default:
		return -1
	}
}

// Closed reports whether the contact has ended.
func (s *Session) Closed() bool { return s.closed }

// SentBits returns the number of bits delivered so far on this contact.
func (s *Session) SentBits() float64 { return s.sentBits }

// Enqueue schedules a transfer on this contact. It returns false if the
// session has already closed or the endpoints do not match the contact.
//
//dtn:allocfree steady state reuses the queue's backing array
func (s *Session) Enqueue(t Transfer) bool {
	if s.closed {
		return false
	}
	if !(t.From == s.A && t.To == s.B) && !(t.From == s.B && t.To == s.A) {
		return false
	}
	if t.Bits < 0 {
		return false
	}
	//lint:allow allocfree amortized growth: the queue rewinds and reuses its array
	s.queue = append(s.queue, t)
	if !s.busy {
		s.startNext()
	}
	return true
}

// startNext begins the next queued transfer, scheduling its completion.
// The fit check happens in place — an unfitting head stays queued (it
// will be reported dropped when the contact closes, and everything
// behind it in the FIFO cannot fit either), so no re-prepend copy.
//
//dtn:allocfree part of the armed-idle fault probe path
func (s *Session) startNext() {
	if s.head >= len(s.queue) {
		return
	}
	d := s.driver
	t := &s.queue[s.head]
	dur := t.Bits / d.bandwidth
	done := d.sim.Now() + dur
	if done > s.End {
		return
	}
	s.cur = *t
	// Clear the spent slot so delivered callbacks are not retained.
	*t = Transfer{}
	s.head++
	if s.head == len(s.queue) {
		// Fully drained: rewind so later enqueues reuse the backing array.
		s.queue = s.queue[:0]
		s.head = 0
	}
	s.curDropped = d.faults != nil && d.faults.KillTransfer(s.cur.From, s.cur.To, s.cur.Bits, s.cur.Label)
	s.busy = true
	// Scheduling relative to now never fails.
	_ = d.sim.Schedule(done, s.onDone)
}

// finishTransfer completes the in-flight transfer; scheduled as the
// session's reusable onDone callback.
//
//dtn:allocfree per-transfer completion on the contact hot path
func (s *Session) finishTransfer() {
	d := s.driver
	s.busy = false
	t := s.cur
	s.cur = Transfer{}
	if s.closed {
		if t.OnDropped != nil {
			t.OnDropped(d.sim.Now())
		}
		d.releaseSession(s)
		return
	}
	if s.curDropped {
		d.droppedTransfers++
		d.cDropped.Inc()
		if t.OnDropped != nil {
			t.OnDropped(d.sim.Now())
		}
	} else {
		s.sentBits += t.Bits
		d.deliveredTransfers++
		d.cDelivered.Inc()
		if t.OnDelivered != nil {
			t.OnDelivered(d.sim.Now())
		}
	}
	if !s.closed && !s.busy {
		s.startNext()
	}
	if s.closed {
		d.releaseSession(s)
	}
}

// close ends the session, dropping all queued transfers. The queue's
// backing array is kept (slots cleared, length rewound) so a pooled
// session reuses it on its next contact.
func (s *Session) close(at Time) {
	if s.closed {
		return
	}
	s.closed = true
	for i := s.head; i < len(s.queue); i++ {
		if s.queue[i].OnDropped != nil {
			s.queue[i].OnDropped(at)
		}
	}
	for i := s.head; i < len(s.queue); i++ {
		s.queue[i] = Transfer{}
	}
	s.queue = s.queue[:0]
	s.head = 0
}

// endContact is the session's scheduled end event (the onEnd method
// value).
//
//dtn:allocfree per-contact teardown on the replay hot path
func (s *Session) endContact() { s.driver.sessionEnd(s) }

// Handler receives contact lifecycle callbacks. Implementations hold the
// protocol logic (caching scheme, routing). Sessions are pooled: a
// handler must not retain a *Session past its ContactEnd callback — the
// driver recycles the object for a later contact.
type Handler interface {
	// ContactStart fires when a contact begins. The handler reacts by
	// enqueueing transfers on the session.
	ContactStart(s *Session)
	// ContactEnd fires when the contact closes, after pending transfers
	// have been dropped.
	ContactEnd(s *Session)
}

// DriverOption configures a Driver.
type DriverOption func(*Driver)

// WithBandwidth sets the link bandwidth in bits/second. The default is
// 2.1 Mb/s (Bluetooth EDR, as in the paper's setup).
func WithBandwidth(bitsPerSec float64) DriverOption {
	return func(d *Driver) { d.bandwidth = bitsPerSec }
}

// Bandwidth returns the link bandwidth in bits/second. Provenance
// spans divide transfer sizes by this value — the exact float
// arithmetic the driver uses for link service time — so attributed
// transfer durations match the simulated ones bitwise.
func (d *Driver) Bandwidth() float64 { return d.bandwidth }

// FaultProbe is the driver's view of a fault-injection engine
// (internal/fault). All methods are consulted on the contact hot path;
// a nil probe keeps every site at a single branch.
type FaultProbe interface {
	// NodeDown reports whether the node is currently crashed. Contacts
	// touching a down node are skipped entirely.
	NodeDown(n trace.NodeID) bool
	// TruncateContact may shorten a contact; it returns the effective
	// end time (>= c.Start). Returning c.End or later leaves the
	// contact untouched.
	TruncateContact(c trace.Contact) Time
	// KillTransfer reports whether an in-flight transfer should fail
	// mid-flight despite fitting in the contact.
	KillTransfer(from, to trace.NodeID, bits float64, label string) bool
}

// WithFaults installs a fault-injection probe on the driver. A nil
// probe is the default: no fault checks on the hot path.
func WithFaults(p FaultProbe) DriverOption {
	return func(d *Driver) { d.faults = p }
}

// WithRecorder attaches observability to the contact layer: contact
// begin/end trace events, delivered/dropped transfer counters and a
// contact-duration histogram. A nil recorder leaves every site on its
// branch-only disabled path.
func WithRecorder(r *obs.Recorder) DriverOption {
	return func(d *Driver) {
		d.rec = r
		d.cDelivered = r.Counter("contact", "transfers_delivered")
		d.cDropped = r.Counter("contact", "transfers_dropped")
		d.hDuration = r.Histogram("contact", "duration_seconds", ContactDurationBounds)
	}
}

// ContactDurationBounds buckets contact durations (seconds): sub-minute
// brushes through multi-hour pairings.
var ContactDurationBounds = []float64{30, 60, 120, 300, 600, 1800, 3600, 7200, 14400}

// DefaultBandwidth is 2.1 Mb/s in bits per second.
const DefaultBandwidth = 2.1e6

// Driver replays a contact trace into a Simulator, creating Sessions and
// invoking the Handler.
type Driver struct {
	sim       *Simulator
	handler   Handler
	bandwidth float64
	faults    FaultProbe

	active map[[2]trace.NodeID]*Session

	// Contact feeder. The driver keeps exactly one pending contact-begin
	// event in the heap at any time, pulled lazily from feed; the heap
	// stays O(active sessions) instead of O(trace) whether the raw
	// source is a materialized slice or a streaming reader. feed is the
	// merge of that source; feedFn is a method value created once;
	// feedSeq is the 1-based emission index used as the begin event's
	// explicit sequence number (see ReservedSeqBase).
	feed     *trace.MergeSource
	feedNext trace.Contact
	feedSeq  uint64
	feedFn   func()
	feedErr  error

	// free is the session pool; see Session's pooling fields.
	free []*Session

	deliveredTransfers int
	droppedTransfers   int
	skippedContacts    int

	rec        *obs.Recorder
	cDelivered *obs.Counter
	cDropped   *obs.Counter
	hDuration  *obs.Histogram
}

// NewDriver creates a driver bound to the simulator and handler.
func NewDriver(s *Simulator, h Handler, opts ...DriverOption) *Driver {
	d := &Driver{
		sim:       s,
		handler:   h,
		bandwidth: DefaultBandwidth,
		active:    make(map[[2]trace.NodeID]*Session),
	}
	for _, opt := range opts {
		opt(d)
	}
	return d
}

// Stats returns delivered/dropped transfer counts and the number of
// overlapping same-pair contacts merged. The merge count covers the
// contacts the feed has read so far, which is every contact once the
// replay has consumed the source.
func (d *Driver) Stats() (delivered, dropped, merged int) {
	if d.feed != nil {
		merged = d.feed.MergedCount()
	}
	return d.deliveredTransfers, d.droppedTransfers, merged
}

// FeedErr returns the sticky error, if any, the contact source reported
// mid-replay. A non-nil value means the run was stopped on a truncated
// or corrupt stream and its results must be discarded.
func (d *Driver) FeedErr() error { return d.feedErr }

// Session returns the active session between a and b, or nil.
func (d *Driver) Session(a, b trace.NodeID) *Session {
	return d.active[pairKey(a, b)]
}

// ActivePeers returns the nodes currently in contact with n, in
// deterministic (ascending) order.
func (d *Driver) ActivePeers(n trace.NodeID) []trace.NodeID {
	var peers []trace.NodeID
	for k, s := range d.active {
		if s.closed {
			continue
		}
		if k[0] == n {
			peers = append(peers, k[1])
		} else if k[1] == n {
			peers = append(peers, k[0])
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	return peers
}

// ErrBadTrace reports a trace that fails validation at load time.
var ErrBadTrace = errors.New("sim: invalid trace")

// Load validates the trace and replays its contacts through LoadStream.
func (d *Driver) Load(tr *trace.Trace) error {
	if err := tr.Validate(); err != nil {
		return errors.Join(ErrBadTrace, err)
	}
	return d.LoadStream(trace.NewSliceSource(tr.Contacts))
}

// LoadStream replays contacts from a source, keeping memory O(active
// sessions). The source must yield valid contacts in nondecreasing
// start order (Trace.Validate and trace.StreamReader enforce both);
// overlapping or touching same-pair contacts are merged online into a
// single longer contact (trace.MergeSource). Load or LoadStream may be
// called once per driver, before Run. Contact-begin events are fed into
// the simulator lazily, one pending at a time, under explicit sequence
// numbers that reproduce the dispatch order of a bulk preload exactly
// (see ReservedSeqBase). A source error mid-replay stops the
// simulation; check FeedErr after the run.
func (d *Driver) LoadStream(src trace.ContactSource) error {
	if d.feed != nil {
		return errors.New("sim: driver already loaded")
	}
	d.feed = trace.NewMergeSource(src)
	d.feedFn = d.feedStep
	d.sim.ReserveSeqs(ReservedSeqBase)
	return d.scheduleNextContact()
}

// scheduleNextContact pulls the next merged contact and schedules its
// begin event under the next explicit sequence number.
//
//dtn:allocfree the steady-state feeder path; errors are terminal
func (d *Driver) scheduleNextContact() error {
	c, err := d.feed.NextContact()
	if err == io.EOF {
		return nil
	}
	if err != nil {
		d.feedErr = err
		return err
	}
	d.feedSeq++
	if d.feedSeq >= ReservedSeqBase {
		d.feedErr = errors.New("sim: contact count exceeds the reserved sequence range")
		return d.feedErr
	}
	d.feedNext = c
	if err := d.sim.ScheduleSeq(c.Start, d.feedSeq, d.feedFn); err != nil {
		d.feedErr = err
		return err
	}
	return nil
}

// feedStep is the pending contact-begin event: it opens the session for
// the pulled contact and chains the next one into the heap. The chain
// is scheduled first so an equal-timestamp successor still dispatches
// after this one (its sequence number is larger).
//
//dtn:allocfree per-contact replay hot path
func (d *Driver) feedStep() {
	c := d.feedNext
	if err := d.scheduleNextContact(); err != nil {
		// A truncated or corrupt stream cannot be surfaced to a caller
		// mid-run; stop the simulation and leave the error in FeedErr.
		d.sim.Stop()
	}
	d.beginContact(c)
}

// InjectContact schedules a live contact outside the loaded feed: the
// begin event enters the heap at c.Start under an ordinary (non-
// reserved) sequence number, so it dispatches after any feed contact at
// the same instant. An injected contact whose pair already has an open
// session when its begin event fires is dropped (coalesced) — it does
// not extend the active session — which makes
// re-ingesting a duplicate of an in-progress contact harmless. c.Start
// must not be in the past (the scheduler rejects it).
func (d *Driver) InjectContact(c trace.Contact) error {
	if c.A > c.B {
		// Normalize like SortContacts so pair keys agree with the feed.
		c.A, c.B = c.B, c.A
	}
	return d.sim.Schedule(c.Start, func() { d.beginInjected(c) })
}

// beginInjected opens an injected contact's session unless its pair is
// already connected.
func (d *Driver) beginInjected(c trace.Contact) {
	if s := d.active[pairKey(c.A, c.B)]; s != nil && !s.closed {
		return
	}
	d.beginContact(c)
}

func (d *Driver) beginContact(c trace.Contact) {
	if d.faults != nil {
		if d.faults.NodeDown(c.A) || d.faults.NodeDown(c.B) {
			d.skippedContacts++
			return
		}
		if end := d.faults.TruncateContact(c); end < c.End {
			c.End = end
		}
	}
	key := pairKey(c.A, c.B)
	s := d.getSession(c)
	d.active[key] = s
	d.rec.ContactBegin(d.sim.Now(), int32(c.A), int32(c.B))
	d.hDuration.Observe(c.End - c.Start)
	// End event scheduled before the handler runs so an immediate Stop
	// inside the handler still cleans up.
	_ = d.sim.Schedule(c.End, s.onEnd)
	d.handler.ContactStart(s)
}

// getSession pops a recycled session from the pool or allocates one.
//
//dtn:allocfree steady state pops from the free list
func (d *Driver) getSession(c trace.Contact) *Session {
	if n := len(d.free); n > 0 {
		s := d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		s.A, s.B, s.Start, s.End = c.A, c.B, c.Start, c.End
		s.busy, s.closed, s.sentBits = false, false, 0
		s.cur, s.curDropped = Transfer{}, false
		s.endFired, s.pooled = false, false
		return s
	}
	//lint:allow allocfree cold path: the pool grows to the peak concurrent contact count
	s := &Session{A: c.A, B: c.B, Start: c.Start, End: c.End, driver: d}
	//lint:allow allocfree cold path: method values bound once, reused for the session's pooled lifetime
	s.onDone, s.onEnd = s.finishTransfer, s.endContact
	return s
}

// releaseSession returns a session to the pool once it is fully quiet:
// closed, its scheduled end event consumed, and no transfer in flight.
//
//dtn:allocfree steady state reuses the free list's backing array
func (d *Driver) releaseSession(s *Session) {
	if !s.closed || !s.endFired || s.busy || s.pooled {
		return
	}
	s.pooled = true
	//lint:allow allocfree amortized growth: the free list is the session pool
	d.free = append(d.free, s)
}

// sessionEnd handles a session's scheduled end event. A session
// force-closed early by CloseNode has closed set, so the event fires no
// second ContactEnd — it only marks the session recyclable.
//
//dtn:allocfree per-contact teardown on the replay hot path
func (d *Driver) sessionEnd(s *Session) {
	s.endFired = true
	if s.closed {
		d.releaseSession(s)
		return
	}
	d.endSession(pairKey(s.A, s.B), s)
}

// endSession tears down a session at its scheduled (or forced) end. A
// session that already closed is left alone.
func (d *Driver) endSession(key [2]trace.NodeID, s *Session) {
	if s.closed {
		return
	}
	s.close(d.sim.Now())
	if d.active[key] == s {
		delete(d.active, key)
	}
	d.rec.ContactEnd(d.sim.Now(), int32(s.A), int32(s.B), s.sentBits)
	d.handler.ContactEnd(s)
	d.releaseSession(s)
}

// CloseNode force-closes every active session touching n (a node
// crash), firing the usual drop callbacks and ContactEnd handlers in
// deterministic pair order. It returns the number of sessions closed.
func (d *Driver) CloseNode(n trace.NodeID) int {
	var keys [][2]trace.NodeID
	for k, s := range d.active {
		if s.closed {
			continue
		}
		if k[0] == n || k[1] == n {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		d.endSession(k, d.active[k])
	}
	return len(keys)
}

// BusyPairs returns the endpoint pairs with a transfer currently in
// flight, in deterministic order (invariant-checker support).
func (d *Driver) BusyPairs() [][2]trace.NodeID {
	var pairs [][2]trace.NodeID
	for k, s := range d.active {
		if s.busy && !s.closed {
			pairs = append(pairs, k)
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}

// SkippedContacts returns the number of traced contacts never opened
// because an endpoint was down at contact start.
func (d *Driver) SkippedContacts() int { return d.skippedContacts }

func pairKey(a, b trace.NodeID) [2]trace.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]trace.NodeID{a, b}
}
