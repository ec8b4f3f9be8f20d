package provenance_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strconv"
	"testing"

	"dtncache/internal/engine"
	"dtncache/internal/mathx"
	"dtncache/internal/obs"
	"dtncache/internal/provenance"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

func workloadQID(id int64) workload.QueryID { return workload.QueryID(id) }

// traceLine is the decoded NDJSON shape of span and query lines.
type traceLine struct {
	K  string   `json:"k"`
	T  float64  `json:"t"`
	E  float64  `json:"e"`
	Nq *float64 `json:"nq"`
	Tr string   `json:"tr"`
	Sp int64    `json:"sp"`
	Pa *int64   `json:"pa"`
	Op string   `json:"op"`
	A  int32    `json:"a"`
	B  *int32   `json:"b"`
	ID int64    `json:"id"`
	X  int64    `json:"x"`
	V  float64  `json:"v"`
}

func decodeSpan(l traceLine) obs.SpanEvent {
	tr, _ := strconv.ParseUint(l.Tr, 16, 64)
	ev := obs.SpanEvent{Trace: tr, ID: l.Sp, Parent: -1, Op: l.Op,
		Start: l.T, End: l.E, Enq: l.T, A: l.A, B: -1,
		Query: l.ID, Aux: l.X, V: l.V}
	if l.Pa != nil {
		ev.Parent = *l.Pa
	}
	if l.Nq != nil {
		ev.Enq = *l.Nq
	}
	if l.B != nil {
		ev.B = *l.B
	}
	return ev
}

// TestAttributionExactOnInfocom05 runs the paper's Infocom05 preset
// with span tracing on, under the intentional scheme and under
// Epidemic flooding (which replicates both query and reply copies),
// and pins provenance's core promise: every satisfied query
// reconstructs to a complete span tree whose critical-path attribution
// reproduces the recorded end-to-end delay with exact virtual-time
// arithmetic — the root extent equals the deliver span's delay
// bitwise, adjacent path spans touch exactly, and wait/queued/transfer
// reassemble to the total exactly (queued is the closing residual by
// construction). The deliver spans are the trace's record of answers,
// so they must name exactly the queries the report counts satisfied,
// with the report's delays.
func TestAttributionExactOnInfocom05(t *testing.T) {
	for _, name := range []string{engine.SchemeIntentional, engine.SchemeEpidemic} {
		t.Run(name, func(t *testing.T) { checkAttributionExact(t, name) })
	}
}

func checkAttributionExact(t *testing.T, schemeName string) {
	tr, err := trace.GeneratePreset(trace.Infocom05, 1)
	if err != nil {
		t.Fatal(err)
	}
	var cb bytes.Buffer
	rec := obs.NewRecorder(obs.NewStreamSink(&cb))
	// T_L = 12h: at Infocom05's 3-day horizon the default 1-week data
	// lifetime issues no queries at all (same choice as check.sh).
	eng, err := engine.New(engine.Config{Trace: tr, Obs: rec, Scheme: schemeName,
		AvgLifetime: 12 * 3600, SpanRetain: 16})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rep.QueriesSatisfied == 0 {
		t.Fatal("preset run satisfied no queries; the pin needs at least one")
	}

	answered := map[int64]float64{} // query ID -> recorded delay
	var spans []obs.SpanEvent
	sc := bufio.NewScanner(bytes.NewReader(cb.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l traceLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if l.K != "span" {
			continue
		}
		spans = append(spans, decodeSpan(l))
		if l.Op == provenance.OpDeliver {
			answered[l.ID] = l.V
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(answered) != rep.QueriesSatisfied {
		t.Fatalf("trace has %d deliver spans, report says %d satisfied",
			len(answered), rep.QueriesSatisfied)
	}
	delays := make([]float64, 0, len(answered))
	for qid, delay := range answered {
		if !eng.Satisfied(workloadQID(qid)) {
			t.Errorf("query %d has a deliver span but is not satisfied", qid)
		}
		delays = append(delays, delay)
	}
	// Summarize sorts its input, so map order cannot move the sums.
	if s := mathx.Summarize(delays); s.Mean != rep.MeanDelaySec ||
		s.Median != rep.MedianDelaySec || s.P90 != rep.P90DelaySec {
		t.Errorf("deliver-span delays summarize to mean %v median %v p90 %v, report says %v %v %v",
			s.Mean, s.Median, s.P90, rep.MeanDelaySec, rep.MedianDelaySec, rep.P90DelaySec)
	}
	if len(spans) == 0 {
		t.Fatal("no span events in the trace")
	}

	trees := map[int64]*provenance.Tree{}
	for _, tree := range provenance.BuildTrees(spans) {
		trees[tree.Query] = tree
	}
	seed := eng.Config().Seed
	for qid, delay := range answered {
		tree := trees[qid]
		if tree == nil {
			t.Errorf("satisfied query %d has no span tree", qid)
			continue
		}
		if want := provenance.TraceID(seed, workloadQID(qid)); tree.TraceID != want {
			t.Errorf("query %d trace ID %x, want %x", qid, tree.TraceID, want)
		}
		path := tree.CriticalPath()
		if path == nil {
			t.Errorf("satisfied query %d has no critical path", qid)
			continue
		}
		// Exact chain contiguity: each span starts exactly where its
		// parent's extent reached (the root's start for its first child).
		for i := 1; i < len(path); i++ {
			prev := path[i-1].End
			if i == 1 {
				prev = path[0].Start
			}
			if path[i].Start != prev {
				t.Errorf("query %d path[%d] %s starts at %v, parent chain reached %v",
					qid, i, path[i].Op, path[i].Start, prev)
			}
		}
		attr, ok := tree.Attribute()
		if !ok {
			t.Errorf("query %d attribution failed", qid)
			continue
		}
		if attr.Total != delay { // bitwise: both are at - issued
			t.Errorf("query %d attributed total %v != recorded delay %v", qid, attr.Total, delay)
		}
		// Queued is defined as the residual, so the decomposition
		// reassembles to the recorded delay exactly by construction.
		if attr.Queued != attr.Total-attr.Wait-attr.Transfer {
			t.Errorf("query %d queued %v is not the residual of %v-%v-%v",
				qid, attr.Queued, attr.Total, attr.Wait, attr.Transfer)
		}
		if attr.Wait < 0 || attr.Transfer < 0 || attr.Hops == 0 {
			t.Errorf("query %d implausible attribution %+v", qid, attr)
		}
	}

	// The live side: retained trees must answer SpanTree for recent
	// queries with the same spans the trace recorded.
	checked := 0
	for qid := range answered {
		got, ok := eng.SpanTree(workloadQID(qid))
		if !ok || len(got) == 0 {
			continue // evicted by the retention FIFO
		}
		want := trees[qid]
		if len(got) != len(want.Spans) {
			t.Errorf("query %d retained %d spans, trace has %d", qid, len(got), len(want.Spans))
		}
		checked++
	}
	if checked == 0 {
		t.Error("no satisfied query remained in the retention window")
	}
}
