package trace_test

import (
	"io"
	"testing"

	"dtncache/internal/mathx"
	"dtncache/internal/trace"
	"dtncache/internal/trace/tracetest"
)

func drain(t *testing.T, src trace.ContactSource) []trace.Contact {
	t.Helper()
	var out []trace.Contact
	for {
		c, err := src.NextContact()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
}

func TestMergeSourceMatchesReference(t *testing.T) {
	// Random same-pair-heavy traffic so overlaps, touches, and chains of
	// extensions all occur.
	rng := mathx.NewRand(42)
	var raw []trace.Contact
	start := 0.0
	for i := 0; i < 20000; i++ {
		start += rng.Float64() * 2
		a := trace.NodeID(rng.Intn(6))
		b := trace.NodeID(rng.Intn(6))
		if a == b {
			continue
		}
		raw = append(raw, trace.Contact{A: a, B: b, Start: start, End: start + 1 + rng.Float64()*5})
	}
	want := tracetest.ReferenceMerge(raw)
	ms := trace.NewMergeSource(trace.NewSliceSource(raw))
	got := drain(t, ms)
	if len(got) != len(want) {
		t.Fatalf("merged count %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("merged contact %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	if ms.MergedCount() != len(raw)-len(want) {
		t.Fatalf("MergedCount() = %d, want %d", ms.MergedCount(), len(raw)-len(want))
	}
}

// TestMergeSourceCompaction forces the shift-compaction path (head
// large and past half the window) and checks emission is unaffected.
func TestMergeSourceCompaction(t *testing.T) {
	// One pair keeps a long-lived open window while thousands of other
	// pairs pass through, so the window grows and the head advances far
	// behind the tail.
	var raw []trace.Contact
	raw = append(raw, trace.Contact{A: 0, B: 1, Start: 0, End: 1e6})
	for i := 0; i < 5000; i++ {
		s := 1 + float64(i)
		raw = append(raw, trace.Contact{A: 2, B: trace.NodeID(3 + i%7), Start: s, End: s + 0.5})
	}
	raw = append(raw, trace.Contact{A: 0, B: 1, Start: 6000, End: 2e6}) // extends the open window
	want := tracetest.ReferenceMerge(raw)
	got := drain(t, trace.NewMergeSource(trace.NewSliceSource(raw)))
	if len(got) != len(want) {
		t.Fatalf("merged count %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("merged contact %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}
