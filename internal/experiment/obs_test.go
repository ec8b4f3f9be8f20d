package experiment

import (
	"bytes"
	"dtncache/internal/engine"
	"strings"
	"testing"

	"dtncache/internal/obs"
)

// recordedTrace runs one Intentional simulation with a stream-recording
// observer attached and returns the raw NDJSON bytes.
func recordedTrace(t *testing.T, setup engine.Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.NewRecorder(obs.NewStreamSink(&buf))
	setup.Obs = rec
	if _, err := Run(setup, engine.SchemeIntentional); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceByteIdentity pins the determinism contract of the run-trace:
// two runs at the same seed record byte-identical NDJSON (the scripts/
// check.sh gate asserts the same end-to-end through cmd/dtnsim).
func TestTraceByteIdentity(t *testing.T) {
	a := recordedTrace(t, smallSetup(t))
	b := recordedTrace(t, smallSetup(t))
	if len(a) == 0 {
		t.Fatal("recorded trace is empty")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("traces differ across identical runs: %d vs %d bytes", len(a), len(b))
	}
	// A different seed must actually change the recorded stream.
	setup := smallSetup(t)
	setup.Seed = 2
	if bytes.Equal(a, recordedTrace(t, setup)) {
		t.Error("different seeds recorded identical traces")
	}
}

// TestObsDoesNotPerturbReport pins the read-only contract of the
// instrumentation: attaching a recorder (sink, metrics and phases all
// active) must not change a single report field.
func TestObsDoesNotPerturbReport(t *testing.T) {
	off, err := Run(smallSetup(t), engine.SchemeIntentional)
	if err != nil {
		t.Fatal(err)
	}
	setup := smallSetup(t)
	var buf bytes.Buffer
	rec := obs.NewRecorder(obs.NewStreamSink(&buf), obs.WithPhases(obs.NewPhases(nil)))
	setup.Obs = rec
	on, err := Run(setup, engine.SchemeIntentional)
	if err != nil {
		t.Fatal(err)
	}
	if off != on {
		t.Errorf("instrumentation perturbed the report:\noff %+v\non  %+v", off, on)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("instrumented run recorded nothing")
	}
}

// TestObsCountersMatchReport cross-checks the observability counters
// against the report the simulation computed independently.
func TestObsCountersMatchReport(t *testing.T) {
	setup := smallSetup(t)
	rec := obs.NewRecorder(nil)
	setup.Obs = rec
	rep, err := Run(setup, engine.SchemeIntentional)
	if err != nil {
		t.Fatal(err)
	}
	issued := rec.Counter("query", "issued").Value()
	answered := rec.Counter("query", "answered").Value()
	if int(issued) != rep.QueriesIssued {
		t.Errorf("query/issued = %d, report says %d", issued, rep.QueriesIssued)
	}
	if int(answered) != rep.QueriesSatisfied {
		t.Errorf("query/answered = %d, report says %d", answered, rep.QueriesSatisfied)
	}
	if rec.Counter("sim", "events_dispatched").Value() == 0 {
		t.Error("sim/events_dispatched never advanced")
	}
	if rec.Counter("contact", "transfers_delivered").Value() == 0 {
		t.Error("contact/transfers_delivered never advanced")
	}
	h := rec.Histogram("query", "delay_seconds", nil)
	if h.Total() != answered {
		t.Errorf("delay histogram has %d samples, want %d (one per answered query)",
			h.Total(), answered)
	}
	var sb strings.Builder
	if err := rec.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "query/issued") {
		t.Errorf("summary missing query/issued:\n%s", sb.String())
	}
}

// TestCellHookFires pins the -progress satellite's contract: every
// completed Run reports its scheme and a positive wall time to the
// registered hook, and clearing the hook stops the reports.
func TestCellHookFires(t *testing.T) {
	type cell struct {
		scheme string
		wallNs int64
	}
	var cells []cell
	SetCellHook(func(schemeName string, wallNs int64) {
		cells = append(cells, cell{schemeName, wallNs})
	})
	defer SetCellHook(nil)
	if _, err := Run(smallSetup(t), engine.SchemeIntentional); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("hook fired %d times, want 1", len(cells))
	}
	if cells[0].scheme != engine.SchemeIntentional || cells[0].wallNs <= 0 {
		t.Errorf("hook got %+v", cells[0])
	}
	SetCellHook(nil)
	if _, err := Run(smallSetup(t), engine.SchemeNoCache); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Error("cleared hook still fired")
	}
}
