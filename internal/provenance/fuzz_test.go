package provenance

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"dtncache/internal/obs"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// The reference model below is the map-based custody tracer the
// packed custody table replaced, kept verbatim apart from its names:
// FuzzTracer drives both with the same calls and requires the same
// span stream and the same SpanTree answers.

type refCustody struct {
	arrival float64
	parent  int64
}

type refCopyKey struct {
	target trace.NodeID
	node   trace.NodeID
}

type refQueryTrace struct {
	traceID   uint64
	issued    float64
	deadline  float64
	requester trace.NodeID
	data      int64
	next      int64
	qcop      map[refCopyKey]refCustody
	lastQ     map[refCopyKey]refCustody
	rcop      map[trace.NodeID]refCustody
	spans     []obs.SpanEvent
	done      bool
	closed    bool
}

func (qt *refQueryTrace) queryCustody(k refCopyKey) refCustody {
	if c, ok := qt.qcop[k]; ok {
		return c
	}
	return refCustody{arrival: qt.issued, parent: rootSpanID}
}

func (qt *refQueryTrace) arrivalCustody(k refCopyKey) refCustody {
	if c, ok := qt.lastQ[k]; ok {
		return c
	}
	return qt.queryCustody(k)
}

type refTracer struct {
	rec       *obs.Recorder
	seed      int64
	retain    int
	qt        map[workload.QueryID]*refQueryTrace
	doneOrder []workload.QueryID
}

func newRefTracer(rec *obs.Recorder, seed int64, retain int) *refTracer {
	return &refTracer{rec: rec, seed: seed, retain: retain,
		qt: make(map[workload.QueryID]*refQueryTrace)}
}

func (t *refTracer) emit(qt *refQueryTrace, ev obs.SpanEvent) {
	ev.Trace = qt.traceID
	t.rec.Span(ev)
	if t.retain > 0 {
		qt.spans = append(qt.spans, ev)
	}
}

func (t *refTracer) QueryIssued(q workload.Query) {
	if _, ok := t.qt[q.ID]; ok {
		return
	}
	t.qt[q.ID] = &refQueryTrace{
		traceID:   TraceID(t.seed, q.ID),
		issued:    q.Issued,
		deadline:  q.Deadline,
		requester: q.Requester,
		data:      int64(q.Data),
		next:      rootSpanID + 1,
		qcop:      make(map[refCopyKey]refCustody),
		lastQ:     make(map[refCopyKey]refCustody),
		rcop:      make(map[trace.NodeID]refCustody),
	}
}

func (t *refTracer) QueryRetry(q workload.Query, at float64, attempt int) {
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

func (t *refTracer) QueryHop(id workload.QueryID, target, from, to trace.NodeID,
	enq, delivered, xferSec float64, op string, moved bool) {
	qt := t.qt[id]
	if qt == nil || qt.closed {
		return
	}
	st := qt.queryCustody(refCopyKey{target, from})
	sp := qt.next
	qt.next++
	t.emit(qt, obs.SpanEvent{ID: sp, Parent: st.parent, Op: op,
		Start: st.arrival, End: delivered, Enq: enq,
		A: int32(from), B: int32(to), Query: int64(id),
		Aux: int64(target), V: xferSec})
	if moved {
		delete(qt.qcop, refCopyKey{target, from})
	}
	dst := refCopyKey{target, to}
	if _, ok := qt.qcop[dst]; !ok {
		qt.qcop[dst] = refCustody{arrival: delivered, parent: sp}
	}
	qt.lastQ[dst] = refCustody{arrival: delivered, parent: sp}
}

func (t *refTracer) NCLMiss(id workload.QueryID, target, center trace.NodeID,
	at float64, ncl int) {
	qt := t.qt[id]
	if qt == nil || qt.closed {
		return
	}
	st := qt.arrivalCustody(refCopyKey{target, center})
	sp := qt.next
	qt.next++
	t.emit(qt, obs.SpanEvent{ID: sp, Parent: st.parent, Op: OpNCLMiss,
		Start: at, End: at, Enq: at,
		A: int32(center), B: -1, Query: int64(id), Aux: int64(ncl)})
}

func (t *refTracer) Pull(id workload.QueryID, target, responder trace.NodeID,
	at float64, dataID int64, utility float64) {
	qt := t.qt[id]
	if qt == nil || qt.closed {
		return
	}
	st := qt.arrivalCustody(refCopyKey{target, responder})
	sp := qt.next
	qt.next++
	t.emit(qt, obs.SpanEvent{ID: sp, Parent: st.parent, Op: OpPull,
		Start: at, End: at, Enq: at,
		A: int32(responder), B: -1, Query: int64(id), Aux: dataID, V: utility})
	if _, ok := qt.rcop[responder]; !ok {
		qt.rcop[responder] = refCustody{arrival: at, parent: sp}
	}
}

func (t *refTracer) ReplyHop(id workload.QueryID, from, to trace.NodeID,
	enq, delivered, xferSec float64, moved, toRequester, first bool) {
	qt := t.qt[id]
	if qt == nil || qt.closed {
		return
	}
	st, ok := qt.rcop[from]
	if !ok {
		st = refCustody{arrival: enq, parent: rootSpanID}
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
		qt.rcop[to] = refCustody{arrival: delivered, parent: sp}
	}
}

func (t *refTracer) Sweep(now float64) {
	if len(t.qt) == 0 {
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

func (t *refTracer) SpanTree(id workload.QueryID) ([]obs.SpanEvent, bool) {
	qt := t.qt[id]
	if qt == nil {
		return nil, false
	}
	return append([]obs.SpanEvent(nil), qt.spans...), true
}

// fuzzIDs, fuzzNodes and fuzzTargets keep the fuzzed ranges small so
// calls collide on the same query, copy and carrier often.
const fuzzIDs, fuzzNodes, fuzzTargets = 6, 6, 3

// multiBlockSeed is a FuzzTracer input whose trees span several span
// blocks. Query 0 takes 30 hops, a reply hop from a carrier without
// reply custody (its parent is the root, so it starts at its enqueue),
// a pull and the first delivery, which emits the root mid-stream, then
// a retry, a miss and 20 more hops, whose IDs skip the root's. Query 1
// takes 30 hops. Sweeps compare both trees in flight, then close them,
// and retention 1 evicts query 0's tree.
func multiBlockSeed() []byte {
	in := []byte{1}
	step := func(op, id, target, a, b, flags byte) { in = append(in, op, id, target, a, b, flags) }
	// Runs of four hops along one target chain custody from hop to hop.
	hops := func(id byte, n int) {
		for i := range n {
			step(1+byte(i%2), id, byte(i/4%fuzzTargets), byte(i%fuzzNodes), byte((i+1)%fuzzNodes), byte(i))
		}
	}
	step(0, 0, 0, 2, 0, 15) // query 0, requester 2, deadline 16
	hops(0, 30)
	step(5, 0, 0, 3, 4, 1)  // reply hop 3->4, enqueued at 1: no reply custody at 3
	step(4, 0, 1, 4, 1, 0)  // pull at 4
	step(5, 0, 0, 4, 2, 48) // first delivery to the requester
	step(6, 0, 0, 2, 0, 1)  // retry
	step(3, 0, 1, 5, 0, 0)  // miss at 5
	hops(0, 20)
	step(0, 1, 0, 3, 0, 15) // query 1, deadline 16
	hops(1, 30)
	for range 3 {
		step(7, 0, 0, 0, 0, 7) // sweep at 7, 14, 21
	}
	return in
}

// FuzzTracer applies one call sequence, decoded from the input bytes,
// to the tracer and to the map-based reference model above. Both must
// write the same span lines and answer SpanTree identically for every
// query ID after every sweep and at the end.
func FuzzTracer(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 2, 1, 2, 3, 4, 9, 3, 0, 2, 2, 5, 4, 2, 0, 1, 0, 7})
	f.Add([]byte{1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 2, 5, 0, 2, 1, 3, 7, 1, 4, 0, 0, 7, 0, 5, 0})
	f.Add(bytes.Repeat([]byte{0, 1, 1, 2, 3, 1, 4, 2, 5, 7, 2, 6}, 6))
	f.Add(multiBlockSeed())
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		var gotLines, wantLines closeBuffer
		gotRec := obs.NewRecorder(obs.NewStreamSink(&gotLines))
		wantRec := obs.NewRecorder(obs.NewStreamSink(&wantLines))
		retain := int(in[0] % 4)
		got, want := NewTracer(gotRec, 3, retain), newRefTracer(wantRec, 3, retain)
		compareTrees := func(step int) {
			t.Helper()
			for id := workload.QueryID(0); id <= fuzzIDs; id++ {
				gs, gok := got.SpanTree(id)
				ws, wok := want.SpanTree(id)
				if gok != wok || !reflect.DeepEqual(gs, ws) {
					t.Fatalf("step %d: SpanTree(%d) = %v %+v, reference %v %+v", step, id, gok, gs, wok, ws)
				}
			}
		}
		now := 0.0
		pos := 1
		next := func() int {
			if pos >= len(in) {
				return 0
			}
			pos++
			return int(in[pos-1])
		}
		for step := 0; pos < len(in); step++ {
			op := next() % 8
			id := workload.QueryID(next() % fuzzIDs)
			target := trace.NodeID(next() % fuzzTargets)
			a, b := trace.NodeID(next()%fuzzNodes), trace.NodeID(next()%fuzzNodes)
			flags := next()
			// Instants stay on a coarse integer grid so an enqueue
			// often equals a segment's start (the encoder omits it then).
			enq := now + float64(flags%3)
			at := enq + float64(flags>>2%3)
			switch op {
			case 0:
				query := workload.Query{ID: id, Requester: a, Data: workload.DataID(target),
					Issued: now, Deadline: now + float64(1+flags%16)}
				got.QueryIssued(query)
				want.QueryIssued(query)
			case 1, 2:
				hopOp := [...]string{OpQuerySeg, OpQuerySpray, OpQueryBcast}[flags%3]
				moved := flags&8 != 0
				got.QueryHop(id, target, a, b, enq, at, 1, hopOp, moved)
				want.QueryHop(id, target, a, b, enq, at, 1, hopOp, moved)
			case 3:
				got.NCLMiss(id, target, a, at, int(b))
				want.NCLMiss(id, target, a, at, int(b))
			case 4:
				got.Pull(id, target, a, at, int64(b), float64(flags%4)/4)
				want.Pull(id, target, a, at, int64(b), float64(flags%4)/4)
			case 5:
				moved, toReq, first := flags&8 != 0, flags&16 != 0, flags&32 != 0
				got.ReplyHop(id, a, b, enq, at, 2.5, moved, toReq, first)
				want.ReplyHop(id, a, b, enq, at, 2.5, moved, toReq, first)
			case 6:
				query := workload.Query{ID: id, Requester: a}
				got.QueryRetry(query, at, flags%4)
				want.QueryRetry(query, at, flags%4)
			case 7:
				now += float64(flags % 8)
				got.Sweep(now)
				want.Sweep(now)
				compareTrees(step)
			}
		}
		compareTrees(-1)
		if err := gotRec.Close(); err != nil {
			t.Fatal(err)
		}
		if err := wantRec.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotLines.Bytes(), wantLines.Bytes()) {
			t.Fatalf("span lines differ from the reference:\n got: %s\nwant: %s", gotLines.Bytes(), wantLines.Bytes())
		}
	})
}
