package provenance

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"dtncache/internal/obs"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// closeBuffer is a bytes.Buffer that satisfies io.Closer for the
// stream sink.
type closeBuffer struct{ bytes.Buffer }

func (c *closeBuffer) Close() error { return nil }

func q(id int, req int, data int, issued, deadline float64) workload.Query {
	return workload.Query{ID: workload.QueryID(id), Requester: trace.NodeID(req),
		Data: workload.DataID(data), Issued: issued, Deadline: deadline}
}

// walk a happy-path query through the tracer: issue at 10, gradient
// hop 2->5 (enq 40, delivered 50), hop 5->9 (the center, enq 70,
// delivered 75), miss at the center, broadcast 9->4 (enq 80, delivered
// 82), pull at 4, reply 4->2 (enq 90, delivered 100).
func happyPath(t *testing.T, tr *Tracer) {
	t.Helper()
	query := q(0, 2, 7, 10, 500)
	tr.QueryIssued(query)
	tr.QueryHop(0, 9, 2, 5, 40, 50, 1.0, OpQuerySeg, true)
	tr.QueryHop(0, 9, 5, 9, 70, 75, 1.0, OpQuerySeg, true)
	tr.NCLMiss(0, 9, 9, 75, 3)
	tr.QueryHop(0, 9, 9, 4, 80, 82, 1.0, OpQueryBcast, false)
	tr.Pull(0, 9, 4, 82, 7, 0.25)
	tr.ReplyHop(0, 4, 2, 90, 100, 2.5, true, true, true)
}

func TestTracerHappyPath(t *testing.T) {
	tr := NewTracer(nil, 1, 8)
	happyPath(t, tr)

	spans, ok := tr.SpanTree(0)
	if !ok {
		t.Fatal("query 0 unknown to the tracer")
	}
	trees := BuildTrees(spans)
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	tree := trees[0]
	root, del := tree.Root(), tree.Deliver()
	if root == nil || del == nil {
		t.Fatal("satisfied query must have root and deliver spans")
	}
	if root.Start != 10 || root.End != 100 {
		t.Errorf("root extent [%v,%v], want [10,100]", root.Start, root.End)
	}
	if tid := TraceID(1, 0); root.Trace != tid {
		t.Errorf("trace ID %x, want %x", root.Trace, tid)
	}

	path := tree.CriticalPath()
	ops := make([]string, len(path))
	for i, sp := range path {
		ops[i] = sp.Op
	}
	want := []string{OpIssue, OpQuerySeg, OpQuerySeg, OpQueryBcast, OpPull, OpReplySeg, OpDeliver}
	if strings.Join(ops, " ") != strings.Join(want, " ") {
		t.Fatalf("critical path %v, want %v", ops, want)
	}
	// Exact-float chain contiguity: each path span starts where its
	// parent's extent reached (the root's own start for its first
	// child) — the virtual-time arithmetic the attribution relies on.
	for i := 1; i < len(path); i++ {
		prev := path[i-1].End
		if i == 1 {
			prev = path[0].Start
		}
		if path[i].Start != prev {
			t.Errorf("path[%d] %s starts at %v, want %v", i, path[i].Op, path[i].Start, prev)
		}
	}

	attr, ok := tree.Attribute()
	if !ok {
		t.Fatal("attribution failed on a complete tree")
	}
	if attr.Total != 90 {
		t.Errorf("total %v, want 90", attr.Total)
	}
	// Wait: (40-10) + (70-50) + (80-75) + (90-82); transfer: 1+1+1+2.5.
	if attr.Wait != 63 || attr.Transfer != 5.5 || attr.Hops != 4 {
		t.Errorf("wait/transfer/hops = %v/%v/%d, want 63/5.5/4", attr.Wait, attr.Transfer, attr.Hops)
	}
	if attr.Queued != attr.Total-attr.Wait-attr.Transfer {
		t.Errorf("queued %v is not the residual", attr.Queued)
	}
	if attr.Wait+attr.Queued+attr.Transfer != attr.Total {
		t.Errorf("components %v+%v+%v do not reassemble total %v",
			attr.Wait, attr.Queued, attr.Transfer, attr.Total)
	}
}

func TestTracerEmitsSpanLines(t *testing.T) {
	var cb closeBuffer
	rec := obs.NewRecorder(obs.NewStreamSink(&cb))
	tr := NewTracer(rec, 1, 0) // no retention: lines still stream
	happyPath(t, tr)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(cb.String(), "\n"), "\n")
	if len(lines) != 8 { // 4 hops + miss + pull + deliver + root
		t.Fatalf("emitted %d span lines, want 8: %v", len(lines), lines)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, `{"k":"span",`) {
			t.Errorf("not a span line: %s", l)
		}
	}
	if _, ok := tr.SpanTree(0); !ok {
		t.Error("query must stay known while in flight")
	}
	if spans, _ := tr.SpanTree(0); len(spans) != 0 {
		t.Error("retention off must keep no spans in memory")
	}
}

func TestTracerSecondDeliveryIgnored(t *testing.T) {
	tr := NewTracer(nil, 1, 8)
	happyPath(t, tr)
	// A duplicate reply reaching the requester later must not emit a
	// second deliver/root pair.
	tr.Pull(0, 9, 6, 110, 7, 0.5)
	tr.ReplyHop(0, 6, 2, 120, 130, 2.5, true, true, false)
	spans, _ := tr.SpanTree(0)
	deliver, issue := 0, 0
	for _, sp := range spans {
		switch sp.Op {
		case OpDeliver:
			deliver++
		case OpIssue:
			issue++
		}
	}
	if deliver != 1 || issue != 1 {
		t.Errorf("deliver/issue spans = %d/%d, want 1/1", deliver, issue)
	}
}

func TestTracerSweepRetention(t *testing.T) {
	tr := NewTracer(nil, 1, 2)
	for i := 0; i < 4; i++ {
		tr.QueryIssued(q(i, 2, 7, 10, 100))
	}
	tr.Sweep(50) // nothing expired yet
	for i := 0; i < 4; i++ {
		if _, ok := tr.SpanTree(workload.QueryID(i)); !ok {
			t.Fatalf("query %d evicted before its deadline", i)
		}
	}
	tr.Sweep(100) // all four expire; FIFO keeps the newest two
	for i, want := range []bool{false, false, true, true} {
		if _, ok := tr.SpanTree(workload.QueryID(i)); ok != want {
			t.Errorf("query %d retained = %v, want %v", i, ok, want)
		}
	}
	// A late event on a swept query must not resurrect it.
	tr.QueryHop(2, 9, 2, 5, 40, 50, 1, OpQuerySeg, true)
	if spans, _ := tr.SpanTree(2); len(spans) != 0 {
		t.Error("closed query accepted a late span")
	}
}

func TestTracerZeroRetentionSweepDrops(t *testing.T) {
	tr := NewTracer(nil, 1, 0)
	tr.QueryIssued(q(0, 2, 7, 10, 100))
	tr.Sweep(100)
	if _, ok := tr.SpanTree(0); ok {
		t.Error("retention 0 must forget expired queries entirely")
	}
}

func TestTraceIDStableAndSeedSensitive(t *testing.T) {
	a, b := TraceID(1, 7), TraceID(1, 7)
	if a != b {
		t.Error("trace ID not stable")
	}
	if TraceID(2, 7) == a || TraceID(1, 8) == a {
		t.Error("trace ID insensitive to seed or query ID")
	}
}

func TestBuildTreesGroupsAndSorts(t *testing.T) {
	spans := []obs.SpanEvent{
		{Trace: 9, ID: 2, Parent: 0, Op: OpQuerySeg, Query: 5},
		{Trace: 3, ID: 0, Parent: -1, Op: OpIssue, Query: 1},
		{Trace: 9, ID: 0, Parent: -1, Op: OpIssue, Query: 5},
		{Trace: 9, ID: 1, Parent: 0, Op: OpRetry, Query: 5},
	}
	trees := BuildTrees(spans)
	if len(trees) != 2 || trees[0].Query != 1 || trees[1].Query != 5 {
		t.Fatalf("trees = %+v", trees)
	}
	got := trees[1]
	for i, sp := range got.Spans {
		if sp.ID != int64(i) {
			t.Errorf("span %d has ID %d, want sorted", i, sp.ID)
		}
	}
	if got.Span(2) == nil || got.Span(7) != nil {
		t.Error("Span lookup wrong")
	}
	if kids := got.Children(0); len(kids) != 2 {
		t.Errorf("root has %d children, want 2", len(kids))
	}
}

func TestCriticalPathBrokenChain(t *testing.T) {
	// A deliver span whose parent is missing (truncated trace) must
	// yield no path rather than a partial or looping one.
	tree := &Tree{Query: 0, Spans: []obs.SpanEvent{
		{ID: 0, Parent: -1, Op: OpIssue},
		{ID: 5, Parent: 4, Op: OpDeliver},
	}}
	if tree.CriticalPath() != nil {
		t.Error("broken chain produced a path")
	}
	if _, ok := tree.Attribute(); ok {
		t.Error("broken chain produced an attribution")
	}
}

// TestSpanZeroAlloc pins the recorder-off provenance path at zero
// allocations: simulations without tracing construct no Tracer, and
// every instrumentation site must stay a nil-receiver branch.
func TestSpanZeroAlloc(t *testing.T) {
	var tr *Tracer
	var rec *obs.Recorder
	query := q(0, 2, 7, 10, 500)
	allocs := testing.AllocsPerRun(200, func() {
		tr.QueryIssued(query)
		tr.QueryRetry(query, 20, 1)
		tr.QueryHop(0, 9, 2, 5, 40, 50, 1.0, OpQuerySeg, true)
		tr.NCLMiss(0, 9, 9, 75, 3)
		tr.Pull(0, 9, 4, 82, 7, 0.25)
		tr.ReplyHop(0, 4, 2, 90, 100, 2.5, true, true, true)
		tr.Sweep(1000)
		if _, ok := tr.SpanTree(0); ok {
			t.Fatal("nil tracer knows a query")
		}
		rec.Span(obs.SpanEvent{})
	})
	if allocs != 0 {
		t.Errorf("recorder-off span path allocates %v/op, want 0", allocs)
	}
}

// TestTracerHopAllocs pins the retained hop path: once both carriers
// of a copy are in the query's custody table, QueryHops allocate only
// the span blocks their records fill, one per blockSpans hops, and copy
// nothing, so they allocate about one record's 48 bytes per hop. The
// slice the blocks replaced grew by doubling and copied every record
// on each growth, which allocates about twice the records' bytes.
func TestTracerHopAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if rec, slot := unsafe.Sizeof(spanRec{}), unsafe.Sizeof(custodySlot{}); rec != 48 || slot != 32 {
		t.Fatalf("span record %d bytes, custody slot %d, want 48 and 32", rec, slot)
	}
	tr := NewTracer(nil, 1, 8)
	tr.QueryIssued(q(0, 2, 7, 10, 1e9))
	tr.QueryHop(0, 9, 2, 5, 40, 50, 1, OpQuerySeg, false) // adds (9, 5)
	tr.QueryHop(0, 9, 5, 2, 60, 70, 1, OpQuerySeg, false) // adds (9, 2)
	qt := tr.qt[0]
	const hops = 3000
	ops := [...]string{OpQuerySeg, OpQuerySpray, OpQueryBcast}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hops; i++ {
		from, to := trace.NodeID(2), trace.NodeID(5)
		if i%2 == 1 {
			from, to = to, from
		}
		at := 100 + float64(i)
		tr.QueryHop(0, 9, from, to, at, at+1, 1, ops[i%3], i%4 < 2)
	}
	runtime.ReadMemStats(&after)
	if len(qt.slots) != 8 {
		t.Fatalf("custody table has %d slots, want the initial 8", len(qt.slots))
	}
	if qt.nspans != hops+2 {
		t.Fatalf("%d spans retained, want %d", qt.nspans, hops+2)
	}
	blocks := (hops + blockSpans - 1) / blockSpans
	if mallocs := after.Mallocs - before.Mallocs; mallocs > uint64(blocks) {
		t.Errorf("%d hops allocated %d times, want at most %d: one span block per %d hops", hops, mallocs, blocks, blockSpans)
	}
	perHop := float64(after.TotalAlloc-before.TotalAlloc) / hops
	if limit := 1.1 * float64(unsafe.Sizeof(spanRec{})); perHop > limit {
		t.Errorf("%d hops allocated %.1f bytes each, want at most %.1f: records are copied or blocks waste their size class", hops, perHop, limit)
	}
}

// BenchmarkTracerRetain measures the retained span store in steady
// state. Each op issues 64 queries; each takes a chain of 40 hops
// toward its center (four span blocks), a miss, a pull and the reply
// that delivers it. A sweep then closes all 64 into a retention FIFO of
// 256 trees that is already full, evicting the oldest, and SpanTree
// rebuilds every tree just closed.
func BenchmarkTracerRetain(b *testing.B) {
	const perOp, hops = 64, 40
	tr := NewTracer(nil, 1, 256)
	ops := [...]string{OpQuerySeg, OpQuerySpray, OpQueryBcast}
	next, now := 0, 0.0
	round := func() {
		first := next
		for range perOp {
			id := workload.QueryID(next)
			next++
			tr.QueryIssued(q(int(id), 0, 7, now, now+100))
			for h := range hops {
				at := now + float64(h)
				tr.QueryHop(id, 9, trace.NodeID(h), trace.NodeID(h+1), at, at+0.5, 0.25, ops[h%3], h%2 == 0)
			}
			at := now + hops
			tr.NCLMiss(id, 9, hops, at, 0)
			tr.Pull(id, 9, hops, at, 7, 0.5)
			tr.ReplyHop(id, hops, 0, at+1, at+2, 0.5, true, true, true)
		}
		now += 100
		tr.Sweep(now)
		for id := first; id < next; id++ {
			if spans, ok := tr.SpanTree(workload.QueryID(id)); !ok || len(spans) != hops+5 {
				b.Fatalf("query %d: %d spans (known %v), want %d", id, len(spans), ok, hops+5)
			}
		}
	}
	for range 4 {
		round() // fill the retention FIFO
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		round()
	}
}
