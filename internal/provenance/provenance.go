// Package provenance builds causal span trees for queries: every
// query gets a trace ID derived from (seed, query ID), and its journey
// — issue, per-hop custody segments of the query and the reply, the
// NCL lookup, the cache pull with its Eq. 6 utility, delivery — is
// recorded as spans with virtual-time extents and cause edges to their
// parents. Spans are emitted through the obs run-trace (one "span"
// NDJSON line each) and optionally retained in memory so a live
// service can answer "why was query Q slow?" after the fact.
//
// Causality model: custody of a query copy (and later of its reply) is
// a chain of segments. A segment starts when the copy arrives at a
// node (or when the query is issued, for the requester's original),
// and ends when a contact delivers it to the next node; the enqueue
// instant of that transfer is embedded in the segment, splitting it
// into wait-for-contact [start, enq] and everything after. The
// segment's parent is the segment (or pull) that put the copy on this
// node, so walking parent edges from the delivery span back to the
// root reproduces the query's critical path, and virtual-time
// arithmetic over it attributes the end-to-end delay exactly (see
// Tree.Attribute).
//
// Everything is driven by the deterministic event loop, so the span
// stream is byte-identical across runs at a fixed seed. All Tracer
// methods are nil-receiver-safe: simulations that neither trace nor
// retain never construct a Tracer, keeping the replay hot path at
// 0 allocs/op (pinned by TestSpanZeroAlloc).
//
//dtn:determinism
package provenance

import (
	"math"
	"slices"
	"unsafe"

	"dtncache/internal/obs"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// Span op names. Static strings: they are embedded in trace lines and
// must never be built dynamically.
const (
	// OpIssue is the root span of every satisfied query: the full
	// [issued, answered] extent (a = requester, x = data ID). It is
	// emitted at answer time, so unsatisfied queries have no root.
	OpIssue = "issue"
	// OpQuerySeg is a gradient custody move of the query toward its
	// target: the sender's custody segment [arrival, delivered]
	// (a = sender, b = receiver, x = target node, v = link seconds).
	OpQuerySeg = "q-seg"
	// OpQuerySpray is a binary-spray replication hop: like q-seg, but
	// the sender keeps its copy, so sibling segments overlap.
	OpQuerySpray = "q-spray"
	// OpQueryBcast is a post-NCL broadcast replication hop.
	OpQueryBcast = "q-bcast"
	// OpNCLMiss marks the query reaching a caching center that does
	// not hold the data (a = center, x = NCL index): the moment the
	// scheme falls back to broadcast.
	OpNCLMiss = "ncl-miss"
	// OpPull is the responder's decision to return data (a = responder,
	// x = data ID, v = the Eq. 6 popularity utility of the cached copy
	// serving the query; 0 when the source serves its own data).
	OpPull = "pull"
	// OpReplySeg is a reply custody move back toward the requester
	// (a = sender, b = receiver, v = link seconds).
	OpReplySeg = "r-seg"
	// OpDeliver is the terminal point span at the requester
	// (a = requester, v = end-to-end delay); only the first on-time
	// delivery emits it.
	OpDeliver = "deliver"
	// OpRetry is a fault-layer re-issue of the query (x = attempt).
	OpRetry = "retry"
)

// rootSpanID is the reserved span ID of the per-query root; child
// spans start at 1.
const rootSpanID = 0

// TraceID derives a query's stable 64-bit trace ID from the run seed
// and the query ID (FNV-1a over both, little-endian), so a trace ID
// names one query of one seeded run across re-executions.
func TraceID(seed int64, id workload.QueryID) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(seed))
	mix(uint64(int64(id)))
	return h
}

// custody is one copy's pending segment: when it arrived on its node
// and which span put it there. A negative parent marks it absent.
type custody struct {
	arrival float64
	parent  int32
}

// replyTarget is the reserved target reply custody is kept under.
const replyTarget trace.NodeID = -1

// custodyKey packs a copy's (target, carrier): replication fans the
// query out per pair, mirroring the scheme's carriage dedup.
func custodyKey(target, node trace.NodeID) uint64 {
	return uint64(uint32(target))<<32 | uint64(uint32(node))
}

// custodySlot holds a copy's first arrival on its carrier, which its
// next hop extends, and its most recent one, for cache decisions: 32
// bytes, the two instants and the two parents side by side so the
// int32 parents pack into one word.
type custodySlot struct {
	key             uint64 // custodyKey + 1; 0 marks a free slot
	firstAt, lastAt float64
	firstPa, lastPa int32
}

func (s *custodySlot) first() custody { return custody{s.firstAt, s.firstPa} }
func (s *custodySlot) last() custody  { return custody{s.lastAt, s.lastPa} }

// slot returns key's slot in the query's linear-probing custody table,
// at most 3/4 full, adding one with both sides absent when add is set,
// else nil.
func (qt *queryTrace) slot(key uint64, add bool) *custodySlot {
	if add && 4*(int(qt.used)+1) > 3*len(qt.slots) {
		old := qt.slots
		qt.slots, qt.used = make([]custodySlot, max(8, 2*len(old))), 0
		for _, s := range old {
			if s.key != 0 {
				*qt.slot(s.key-1, true) = s
			}
		}
	}
	if len(qt.slots) == 0 {
		return nil
	}
	key++ // no carrier is node -1, so a stored key is never 0
	mask := uint64(len(qt.slots) - 1)
	for i := key * 0x9e3779b97f4a7c15 >> 32 & mask; ; i = (i + 1) & mask {
		switch s := &qt.slots[i]; s.key {
		case key:
			return s
		case 0:
			if !add {
				return nil
			}
			qt.used++
			*s = custodySlot{key: key, firstPa: -1, lastPa: -1}
			return s
		}
	}
}

// leave returns the pending segment of the copy key names, or def when
// it has none; moved gives the copy up.
func (qt *queryTrace) leave(key uint64, def custody, moved bool) custody {
	if s := qt.slot(key, false); s != nil && s.firstPa >= 0 {
		def = s.first()
		if moved {
			s.firstPa = -1
		}
	}
	return def
}

// arrive records the copy key names landing at cu. The first arrival
// wins the pending segment: re-arrivals of an already-carried copy are
// discarded, as the scheme discards them.
func (qt *queryTrace) arrive(key uint64, cu custody) *custodySlot {
	s := qt.slot(key, true)
	if s.firstPa < 0 {
		s.firstAt, s.firstPa = cu.arrival, cu.parent
	}
	return s
}

// Span op codes: a retained record keeps its op as an index into opNames.
const (
	opIssue uint8 = iota
	opQuerySeg
	opQuerySpray
	opQueryBcast
	opNCLMiss
	opPull
	opReplySeg
	opDeliver
	opRetry
)

var opNames = [...]string{opIssue: OpIssue, opQuerySeg: OpQuerySeg,
	opQuerySpray: OpQuerySpray, opQueryBcast: OpQueryBcast, opNCLMiss: OpNCLMiss,
	opPull: OpPull, opReplySeg: OpReplySeg, opDeliver: OpDeliver, opRetry: OpRetry}

func opCode(op string) uint8 {
	for i, name := range opNames {
		if name == op {
			return uint8(i)
		}
	}
	panic("provenance: unknown span op " + op)
}

// spanRec is a retained span in 48 bytes without pointers, which the
// garbage collector need not scan. It keeps only what SpanTree cannot
// derive: Trace and Query come from the query, ID from the record's
// rank and Start from its op and parent (see SpanTree).
type spanRec struct {
	end, enq float64
	aux      int64
	v        float64
	parent   int32
	a, b     int32
	op       uint8
}

// blockSpans is the number of records in one spanBlock.
const blockSpans = 13

// spanBlock is one link of a query's chain of retained spans. The chain
// grows a block at a time, so retention neither copies records nor
// holds more than one partly filled block per query.
type spanBlock struct {
	next *spanBlock // first, so the collector scans one word
	recs [blockSpans]spanRec
}

// queryTrace is the per-query tracer state.
type queryTrace struct {
	traceID    uint64
	issued     float64
	deadline   float64
	data       int64
	requester  int32
	next       int32         // next span ID; root 0 is reserved for OpIssue
	nspans     int32         // retained records (retain > 0 only)
	used       int32         // occupied custody slots
	slots      []custodySlot // custody table; nil until the first hop
	head, tail *spanBlock    // retained records in emission order
	done       bool          // first on-time delivery seen
	closed     bool          // past deadline and swept
}

// newSpan takes the query's next non-root span ID. Span IDs are int32
// in retained records and custody slots, so a query may emit at most
// MaxInt32 spans.
func (qt *queryTrace) newSpan() int64 {
	if qt.next == math.MaxInt32 {
		panic("provenance: a query exceeded MaxInt32 spans")
	}
	qt.next++
	return int64(qt.next - 1)
}

// arrivalCustody resolves the most recent arrival of the copy at a
// node. Cache decisions (pull, ncl-miss) run inside arrival callbacks,
// so their cause is the hop that just delivered — which, when a node
// re-receives a copy it already carried (a center re-reached by its
// own broadcast after a push filled its cache), is later than the
// carried copy's first arrival. No arrival means the copy has been on
// this node since issue with the root as its cause: the requester's
// original, a retry re-issue, or the requester doubling as its own
// caching center.
func (qt *queryTrace) arrivalCustody(target, node trace.NodeID) custody {
	if s := qt.slot(custodyKey(target, node), false); s != nil {
		return s.last()
	}
	return custody{arrival: qt.issued, parent: rootSpanID}
}

// Tracer accumulates span trees for in-flight queries and emits their
// spans into the obs run-trace. It is single-goroutine like the rest
// of the event loop (the engine facade serializes access); all methods
// are nil-receiver-safe.
type Tracer struct {
	rec    *obs.Recorder
	seed   int64
	retain int
	// qt holds query state by the dense query ID, nil once forgotten;
	// every ID below open is nil or closed.
	qt   []*queryTrace
	open int
	// doneOrder is the FIFO of finished/expired queries whose spans are
	// retained for SpanTree; the oldest is evicted past retain.
	doneOrder []workload.QueryID
}

// NewTracer creates a tracer emitting through rec (spans only reach
// the trace when rec has a sink) and retaining the span trees of up to
// retain finished queries for SpanTree lookups.
func NewTracer(rec *obs.Recorder, seed int64, retain int) *Tracer {
	return &Tracer{rec: rec, seed: seed, retain: retain}
}

// footprint returns the bytes the tracer retains: its query index and
// retention FIFO, and each known query's state, custody table and span
// blocks.
func (t *Tracer) footprint() int {
	b := 8 * (cap(t.qt) + cap(t.doneOrder))
	for _, qt := range t.qt {
		if qt == nil {
			continue
		}
		b += int(unsafe.Sizeof(*qt)) + cap(qt.slots)*int(unsafe.Sizeof(custodySlot{}))
		for blk := qt.head; blk != nil; blk = blk.next {
			b += int(unsafe.Sizeof(*blk))
		}
	}
	return b
}

// lookup returns the state of query id: nil when it is unknown or, with
// live set, closed.
func (t *Tracer) lookup(id workload.QueryID, live bool) *queryTrace {
	if t == nil || uint(id) >= uint(len(t.qt)) || live && t.qt[id] != nil && t.qt[id].closed {
		return nil
	}
	return t.qt[id]
}

// emit stamps the trace ID, writes the span line, and retains it when
// retention is on.
func (t *Tracer) emit(qt *queryTrace, ev obs.SpanEvent) {
	ev.Trace = qt.traceID
	t.rec.Span(ev)
	if t.retain == 0 {
		return
	}
	i := qt.nspans % blockSpans
	if i == 0 {
		b := new(spanBlock)
		if qt.tail == nil {
			qt.head = b
		} else {
			qt.tail.next = b
		}
		qt.tail = b
	}
	qt.tail.recs[i] = spanRec{end: ev.End, enq: ev.Enq, aux: ev.Aux, v: ev.V,
		parent: int32(ev.Parent), a: ev.A, b: ev.B, op: opCode(ev.Op)}
	qt.nspans++
}

// QueryIssued opens the span tree of a freshly issued query.
func (t *Tracer) QueryIssued(q workload.Query) {
	if t == nil || t.lookup(q.ID, false) != nil {
		return // duplicate issue (should not happen; IDs are unique)
	}
	if n := int(q.ID) + 1; n > len(t.qt) {
		t.qt = append(t.qt, make([]*queryTrace, n-len(t.qt))...)
	}
	t.qt[q.ID] = &queryTrace{
		traceID:   TraceID(t.seed, q.ID),
		issued:    q.Issued,
		deadline:  q.Deadline,
		requester: int32(q.Requester),
		data:      int64(q.Data),
		next:      rootSpanID + 1,
	}
	t.open = min(t.open, int(q.ID))
}

// QueryRetry records a fault-layer re-issue as a point span caused by
// the root.
func (t *Tracer) QueryRetry(q workload.Query, at float64, attempt int) {
	qt := t.lookup(q.ID, true)
	if qt == nil {
		return
	}
	sp := qt.newSpan()
	t.emit(qt, obs.SpanEvent{ID: sp, Parent: rootSpanID, Op: OpRetry,
		Start: at, End: at, Enq: at,
		A: int32(q.Requester), B: -1, Query: int64(q.ID), Aux: int64(attempt)})
}

// QueryHop closes the sender's custody segment for the copy headed at
// target: it waited on the sender from its arrival until enq, then
// spent xferSec on the link, landing on the receiver at delivered.
// moved says whether the sender gave custody up (gradient forwarding)
// or kept its copy (spray/broadcast replication). The receiver's new
// segment starts at delivered with this span as its cause; if the
// receiver already carries the copy the scheme deduplicated the
// arrival, and so do we (first custody wins).
func (t *Tracer) QueryHop(id workload.QueryID, target, from, to trace.NodeID,
	enq, delivered, xferSec float64, op string, moved bool) {
	qt := t.lookup(id, true)
	if qt == nil {
		return
	}
	st := qt.leave(custodyKey(target, from),
		custody{arrival: qt.issued, parent: rootSpanID}, moved)
	sp := qt.newSpan()
	t.emit(qt, obs.SpanEvent{ID: sp, Parent: int64(st.parent), Op: op,
		Start: st.arrival, End: delivered, Enq: enq,
		A: int32(from), B: int32(to), Query: int64(id),
		Aux: int64(target), V: xferSec})
	s := qt.arrive(custodyKey(target, to), custody{arrival: delivered, parent: int32(sp)})
	s.lastAt, s.lastPa = delivered, int32(sp)
}

// NCLMiss records the query reaching caching center without finding
// its data — the cache-miss decision point before broadcast.
func (t *Tracer) NCLMiss(id workload.QueryID, target, center trace.NodeID,
	at float64, ncl int) {
	qt := t.lookup(id, true)
	if qt == nil {
		return
	}
	st := qt.arrivalCustody(target, center)
	sp := qt.newSpan()
	t.emit(qt, obs.SpanEvent{ID: sp, Parent: int64(st.parent), Op: OpNCLMiss,
		Start: at, End: at, Enq: at,
		A: int32(center), B: -1, Query: int64(id), Aux: int64(ncl)})
}

// Pull records the responder deciding to return data: a point span
// caused by the query segment that reached the responder, and the
// cause of the reply's first custody segment. utility is the Eq. 6
// popularity value of the cached copy (0 for source-owned data).
func (t *Tracer) Pull(id workload.QueryID, target, responder trace.NodeID,
	at float64, dataID int64, utility float64) {
	qt := t.lookup(id, true)
	if qt == nil {
		return
	}
	st := qt.arrivalCustody(target, responder)
	sp := qt.newSpan()
	t.emit(qt, obs.SpanEvent{ID: sp, Parent: int64(st.parent), Op: OpPull,
		Start: at, End: at, Enq: at,
		A: int32(responder), B: -1, Query: int64(id), Aux: dataID, V: utility})
	qt.arrive(custodyKey(replyTarget, responder), custody{arrival: at, parent: int32(sp)})
}

// ReplyHop closes the sender's reply custody segment. moved says
// whether the sender gave its copy up (gradient forwarding) or kept it
// (epidemic replication), as in QueryHop. When the hop reaches the
// requester (toRequester) and is the first on-time delivery (first),
// it also emits the terminal deliver span and the root issue span,
// completing the tree.
func (t *Tracer) ReplyHop(id workload.QueryID, from, to trace.NodeID,
	enq, delivered, xferSec float64, moved, toRequester, first bool) {
	qt := t.lookup(id, true)
	if qt == nil {
		return
	}
	st := qt.leave(custodyKey(replyTarget, from),
		custody{arrival: enq, parent: rootSpanID}, moved)
	sp := qt.newSpan()
	t.emit(qt, obs.SpanEvent{ID: sp, Parent: int64(st.parent), Op: OpReplySeg,
		Start: st.arrival, End: delivered, Enq: enq,
		A: int32(from), B: int32(to), Query: int64(id), V: xferSec})
	if toRequester {
		if first && !qt.done {
			qt.done = true
			d := qt.newSpan()
			t.emit(qt, obs.SpanEvent{ID: d, Parent: sp, Op: OpDeliver,
				Start: delivered, End: delivered, Enq: delivered,
				A: int32(to), B: -1, Query: int64(id),
				V: delivered - qt.issued})
			t.emit(qt, obs.SpanEvent{ID: rootSpanID, Parent: -1, Op: OpIssue,
				Start: qt.issued, End: delivered, Enq: qt.issued,
				A: qt.requester, B: -1, Query: int64(id), Aux: qt.data})
		}
		return
	}
	qt.arrive(custodyKey(replyTarget, to), custody{arrival: delivered, parent: int32(sp)})
}

// Sweep retires queries whose deadline has passed: their custody
// tables are dropped, and their span trees either enter the bounded
// retention FIFO or are forgotten. Expired IDs are processed in
// ascending order so eviction is deterministic.
func (t *Tracer) Sweep(now float64) {
	if t == nil {
		return
	}
	for id := t.open; id < len(t.qt); id++ {
		qt := t.qt[id]
		if qt == nil || qt.closed || qt.deadline > now {
			continue
		}
		if t.retain > 0 {
			qt.closed, qt.slots = true, nil
			t.doneOrder = append(t.doneOrder, workload.QueryID(id))
		} else {
			t.qt[id] = nil
		}
	}
	for t.open < len(t.qt) && t.lookup(workload.QueryID(t.open), true) == nil {
		t.open++
	}
	for len(t.doneOrder) > t.retain {
		t.qt[t.doneOrder[0]] = nil
		t.doneOrder = t.doneOrder[1:]
	}
}

// SpanTree returns a copy of the retained spans of the query, in
// emission order, and whether the query is known. Retention must be on
// (NewTracer retain > 0) for spans to be present.
//
// The fields a record does not keep are exact functions of it and of
// the spans before it. Every non-root span takes the next ID just
// before it is emitted, so a record's ID is 1 + its rank among the
// query's non-root records, and the issue root, emitted at most once,
// is ID 0. A point span starts at its end and the root at the issue
// instant. A hop whose parent is the root left the custody a carrier
// holds from issue: the issue instant for a query copy, the enqueue for
// a reply. Any other hop left a custody that its parent span stored as
// its own end, and that parent precedes it in the output.
func (t *Tracer) SpanTree(id workload.QueryID) ([]obs.SpanEvent, bool) {
	qt := t.lookup(id, false)
	if qt == nil {
		return nil, false
	}
	out := slices.Grow([]obs.SpanEvent(nil), int(qt.nspans)) // nil when empty
	root := math.MaxInt                                      // the root's output index, once seen
	for b, n := qt.head, int(qt.nspans); n > 0; b, n = b.next, n-blockSpans {
		for i := range min(n, blockSpans) {
			r := &b.recs[i]
			ev := obs.SpanEvent{Trace: qt.traceID, ID: int64(len(out) + 1), Parent: int64(r.parent),
				Op: opNames[r.op], Start: r.end, End: r.end, Enq: r.enq,
				A: r.a, B: r.b, Query: int64(id), Aux: r.aux, V: r.v}
			if len(out) > root {
				ev.ID-- // the root took an output slot but no rank
			}
			switch {
			case r.op == opIssue:
				ev.ID, ev.Start, root = rootSpanID, qt.issued, len(out)
			case r.op == opNCLMiss || r.op == opPull || r.op == opDeliver || r.op == opRetry:
				// a point span: it starts at its end
			case r.parent != rootSpanID:
				p := int(r.parent) - 1 // the parent's rank
				if p >= root {
					p++
				}
				ev.Start = out[p].End
			case r.op == opReplySeg:
				ev.Start = r.enq
			default:
				ev.Start = qt.issued
			}
			out = append(out, ev)
		}
	}
	return out, true
}
