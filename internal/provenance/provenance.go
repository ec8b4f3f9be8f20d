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
	"sort"

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
// and which span put it there.
type custody struct {
	arrival float64
	parent  int64
}

// copyKey identifies one query copy: replication fans the query out
// per (target node, carrier), mirroring the scheme's carriage dedup.
type copyKey struct {
	target trace.NodeID
	node   trace.NodeID
}

// queryTrace is the per-query tracer state.
type queryTrace struct {
	traceID   uint64
	issued    float64
	deadline  float64
	requester trace.NodeID
	data      int64
	next      int64 // next span ID; root 0 is reserved for OpIssue
	qcop      map[copyKey]custody
	lastQ     map[copyKey]custody
	rcop      map[trace.NodeID]custody
	spans     []obs.SpanEvent // retained emissions (retain > 0 only)
	done      bool            // first on-time delivery seen
	closed    bool            // past deadline and swept
}

// queryCustody resolves the pending segment of the copy a node
// carries: the first arrival, mirroring the scheme's carriage dedup
// (re-arrivals of an already-carried copy are discarded). A missing
// entry means the copy has been on this node since issue with the root
// as its cause: the requester's original, a retry re-issue, or the
// requester doubling as its own caching center.
func (qt *queryTrace) queryCustody(k copyKey) custody {
	if c, ok := qt.qcop[k]; ok {
		return c
	}
	return custody{arrival: qt.issued, parent: rootSpanID}
}

// arrivalCustody resolves the most recent arrival of the copy at a
// node. Cache decisions (pull, ncl-miss) run inside arrival callbacks,
// so their cause is the hop that just delivered — which, when a node
// re-receives a copy it already carried (a center re-reached by its
// own broadcast after a push filled its cache), is later than the
// carried copy's first arrival.
func (qt *queryTrace) arrivalCustody(k copyKey) custody {
	if c, ok := qt.lastQ[k]; ok {
		return c
	}
	return qt.queryCustody(k)
}

// Tracer accumulates span trees for in-flight queries and emits their
// spans into the obs run-trace. It is single-goroutine like the rest
// of the event loop (the engine facade serializes access); all methods
// are nil-receiver-safe.
type Tracer struct {
	rec    *obs.Recorder
	seed   int64
	retain int
	qt     map[workload.QueryID]*queryTrace
	// doneOrder is the FIFO of finished/expired queries whose spans are
	// retained for SpanTree; the oldest is evicted past retain.
	doneOrder []workload.QueryID
}

// NewTracer creates a tracer emitting through rec (spans only reach
// the trace when rec has a sink) and retaining the span trees of up to
// retain finished queries for SpanTree lookups.
func NewTracer(rec *obs.Recorder, seed int64, retain int) *Tracer {
	return &Tracer{rec: rec, seed: seed, retain: retain,
		qt: make(map[workload.QueryID]*queryTrace)}
}

// emit stamps the trace ID, writes the span line, and retains it when
// retention is on.
func (t *Tracer) emit(qt *queryTrace, ev obs.SpanEvent) {
	ev.Trace = qt.traceID
	t.rec.Span(ev)
	if t.retain > 0 {
		qt.spans = append(qt.spans, ev)
	}
}

// QueryIssued opens the span tree of a freshly issued query.
func (t *Tracer) QueryIssued(q workload.Query) {
	if t == nil {
		return
	}
	if _, ok := t.qt[q.ID]; ok {
		return // duplicate issue (should not happen; IDs are unique)
	}
	t.qt[q.ID] = &queryTrace{
		traceID:   TraceID(t.seed, q.ID),
		issued:    q.Issued,
		deadline:  q.Deadline,
		requester: q.Requester,
		data:      int64(q.Data),
		next:      rootSpanID + 1,
		qcop:      make(map[copyKey]custody),
		lastQ:     make(map[copyKey]custody),
		rcop:      make(map[trace.NodeID]custody),
	}
}

// QueryRetry records a fault-layer re-issue as a point span caused by
// the root.
func (t *Tracer) QueryRetry(q workload.Query, at float64, attempt int) {
	if t == nil {
		return
	}
	qt := t.qt[q.ID]
	if qt == nil || qt.closed {
		return
	}
	sp := qt.next
	qt.next++
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
	if t == nil {
		return
	}
	qt := t.qt[id]
	if qt == nil || qt.closed {
		return
	}
	st := qt.queryCustody(copyKey{target, from})
	sp := qt.next
	qt.next++
	t.emit(qt, obs.SpanEvent{ID: sp, Parent: st.parent, Op: op,
		Start: st.arrival, End: delivered, Enq: enq,
		A: int32(from), B: int32(to), Query: int64(id),
		Aux: int64(target), V: xferSec})
	if moved {
		delete(qt.qcop, copyKey{target, from})
	}
	dst := copyKey{target, to}
	if _, ok := qt.qcop[dst]; !ok {
		qt.qcop[dst] = custody{arrival: delivered, parent: sp}
	}
	qt.lastQ[dst] = custody{arrival: delivered, parent: sp}
}

// NCLMiss records the query reaching caching center without finding
// its data — the cache-miss decision point before broadcast.
func (t *Tracer) NCLMiss(id workload.QueryID, target, center trace.NodeID,
	at float64, ncl int) {
	if t == nil {
		return
	}
	qt := t.qt[id]
	if qt == nil || qt.closed {
		return
	}
	st := qt.arrivalCustody(copyKey{target, center})
	sp := qt.next
	qt.next++
	t.emit(qt, obs.SpanEvent{ID: sp, Parent: st.parent, Op: OpNCLMiss,
		Start: at, End: at, Enq: at,
		A: int32(center), B: -1, Query: int64(id), Aux: int64(ncl)})
}

// Pull records the responder deciding to return data: a point span
// caused by the query segment that reached the responder, and the
// cause of the reply's first custody segment. utility is the Eq. 6
// popularity value of the cached copy (0 for source-owned data).
func (t *Tracer) Pull(id workload.QueryID, target, responder trace.NodeID,
	at float64, dataID int64, utility float64) {
	if t == nil {
		return
	}
	qt := t.qt[id]
	if qt == nil || qt.closed {
		return
	}
	st := qt.arrivalCustody(copyKey{target, responder})
	sp := qt.next
	qt.next++
	t.emit(qt, obs.SpanEvent{ID: sp, Parent: st.parent, Op: OpPull,
		Start: at, End: at, Enq: at,
		A: int32(responder), B: -1, Query: int64(id), Aux: dataID, V: utility})
	if _, ok := qt.rcop[responder]; !ok {
		qt.rcop[responder] = custody{arrival: at, parent: sp}
	}
}

// ReplyHop closes the sender's reply custody segment. moved says
// whether the sender gave its copy up (gradient forwarding) or kept it
// (epidemic replication), as in QueryHop. When the hop reaches the
// requester (toRequester) and is the first on-time delivery (first),
// it also emits the terminal deliver span and the root issue span,
// completing the tree.
func (t *Tracer) ReplyHop(id workload.QueryID, from, to trace.NodeID,
	enq, delivered, xferSec float64, moved, toRequester, first bool) {
	if t == nil {
		return
	}
	qt := t.qt[id]
	if qt == nil || qt.closed {
		return
	}
	st, ok := qt.rcop[from]
	if !ok {
		st = custody{arrival: enq, parent: rootSpanID}
	}
	sp := qt.next
	qt.next++
	t.emit(qt, obs.SpanEvent{ID: sp, Parent: st.parent, Op: OpReplySeg,
		Start: st.arrival, End: delivered, Enq: enq,
		A: int32(from), B: int32(to), Query: int64(id), V: xferSec})
	if moved {
		delete(qt.rcop, from)
	}
	if toRequester {
		if first && !qt.done {
			qt.done = true
			d := qt.next
			qt.next++
			t.emit(qt, obs.SpanEvent{ID: d, Parent: sp, Op: OpDeliver,
				Start: delivered, End: delivered, Enq: delivered,
				A: int32(to), B: -1, Query: int64(id),
				V: delivered - qt.issued})
			t.emit(qt, obs.SpanEvent{ID: rootSpanID, Parent: -1, Op: OpIssue,
				Start: qt.issued, End: delivered, Enq: qt.issued,
				A: int32(qt.requester), B: -1, Query: int64(id), Aux: qt.data})
		}
		return
	}
	if _, ok := qt.rcop[to]; !ok {
		qt.rcop[to] = custody{arrival: delivered, parent: sp}
	}
}

// Sweep retires queries whose deadline has passed: their custody maps
// are dropped, and their span trees either enter the bounded retention
// FIFO or are forgotten. Expired IDs are processed in sorted order so
// eviction is deterministic.
func (t *Tracer) Sweep(now float64) {
	if t == nil || len(t.qt) == 0 {
		return
	}
	var expired []workload.QueryID
	for id, qt := range t.qt {
		if !qt.closed && qt.deadline <= now {
			expired = append(expired, id)
		}
	}
	if len(expired) == 0 {
		return
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	for _, id := range expired {
		if t.retain > 0 {
			qt := t.qt[id]
			qt.closed = true
			qt.qcop, qt.lastQ, qt.rcop = nil, nil, nil
			t.doneOrder = append(t.doneOrder, id)
		} else {
			delete(t.qt, id)
		}
	}
	for len(t.doneOrder) > t.retain {
		delete(t.qt, t.doneOrder[0])
		t.doneOrder = t.doneOrder[1:]
	}
}

// SpanTree returns a copy of the retained spans of the query, in
// emission order, and whether the query is known. Retention must be on
// (NewTracer retain > 0) for spans to be present.
func (t *Tracer) SpanTree(id workload.QueryID) ([]obs.SpanEvent, bool) {
	if t == nil {
		return nil, false
	}
	qt := t.qt[id]
	if qt == nil {
		return nil, false
	}
	return append([]obs.SpanEvent(nil), qt.spans...), true
}
