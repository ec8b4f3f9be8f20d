package main

import (
	"os"
	"strings"
	"testing"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// synthetic is a tiny hand-written spanless trace: a manifest, two
// contacts, two queries issued, one of them expired, cache churn and
// one sweep cell. Query 0's answer is its deliver span in spanLines.
const synthetic = `{"k":"manifest","trace":"Synthetic","scheme":"Intentional","seed":7,"config_digest":"00c0ffee00c0ffee","go_version":"go1.24.0","gomaxprocs":4,"git_describe":"abc1234"}
{"k":"contact-begin","t":10,"a":1,"b":2}
{"k":"query-issued","t":10,"a":2,"id":0,"x":7}
{"k":"cache-insert","t":30,"a":2,"id":5,"v":0.25}
{"k":"contact-end","t":40,"a":1,"b":2,"v":8000}
{"k":"query-issued","t":60,"a":4,"id":1,"x":6}
{"k":"cache-evict","t":80,"a":2,"id":5,"v":0.01}
{"k":"query-expired","t":100,"a":4,"id":1}
{"k":"cell","t":0,"x":1,"v":1.5,"s":"Intentional"}
`

// spanLines is the span stream of one satisfied query (0: issued at
// 10 by node 2, answered at 100 via 2>5>9>4>2, wait 63s transfer 5.5s)
// plus one still-unsatisfied query (1).
const spanLines = `{"k":"span","t":10,"e":50,"nq":40,"tr":"00000000000000ff","sp":1,"pa":0,"op":"q-seg","a":2,"b":5,"id":0,"x":9,"v":1}
{"k":"span","t":50,"e":75,"nq":70,"tr":"00000000000000ff","sp":2,"pa":1,"op":"q-seg","a":5,"b":9,"id":0,"x":9,"v":1}
{"k":"span","t":75,"e":75,"tr":"00000000000000ff","sp":3,"pa":2,"op":"ncl-miss","a":9,"id":0,"x":3}
{"k":"span","t":75,"e":82,"nq":80,"tr":"00000000000000ff","sp":4,"pa":2,"op":"q-bcast","a":9,"b":4,"id":0,"x":9,"v":1}
{"k":"span","t":82,"e":82,"tr":"00000000000000ff","sp":5,"pa":4,"op":"pull","a":4,"id":0,"x":7,"v":0.25}
{"k":"span","t":82,"e":100,"nq":90,"tr":"00000000000000ff","sp":6,"pa":5,"op":"r-seg","a":4,"b":2,"id":0,"v":2.5}
{"k":"span","t":100,"e":100,"tr":"00000000000000ff","sp":7,"pa":6,"op":"deliver","a":2,"id":0,"v":90}
{"k":"span","t":10,"e":100,"tr":"00000000000000ff","sp":0,"op":"issue","a":2,"id":0,"x":7}
{"k":"span","t":60,"e":70,"nq":65,"tr":"00000000000000aa","sp":1,"pa":0,"op":"q-seg","a":4,"b":6,"id":1,"x":6,"v":1}
`

func dump(t *testing.T, input string, args ...string) string {
	t.Helper()
	path := t.TempDir() + "/trace.ndjson"
	if err := writeFile(path, input); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(append(args, path), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestDumpSyntheticTrace(t *testing.T) {
	out := dump(t, synthetic, "-bins", "2")
	for _, want := range []string{
		`trace="Synthetic"`, "scheme=Intentional", "seed=7",
		"digest=00c0ffee00c0ffee", "go1.24.0", "gomaxprocs=4", "git=abc1234",
		"8 events over [0, 100s]",
		"timeline (2 bins",
		"contact-begin", "query-issued", "cache-insert",
		"evolution (cumulative at bin end)",
		"hit-ratio",
		"sweep cells per scheme",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDumpEvolutionNumbers(t *testing.T) {
	// Single bin: 1 insert − 1 evict = 0 cached, 2 issued, 1 answered
	// (query 0's deliver span), 1 expired, hit ratio 0.500.
	out := dump(t, synthetic+spanLines, "-bins", "1")
	if got, want := evolutionEnd(out), "1.7m 0 2 1 1 0.500"; got != want {
		t.Errorf("evolution end row %q, want %q:\n%s", got, want, out)
	}
}

// evolutionEnd returns the last row of the first evolution table with
// its columns single-spaced.
func evolutionEnd(out string) string {
	_, table, _ := strings.Cut(out, "evolution (cumulative at bin end):\n")
	table, _, _ = strings.Cut(table, "\n\n")
	rows := strings.Split(strings.TrimRight(table, "\n"), "\n")
	return strings.Join(strings.Fields(rows[len(rows)-1]), " ")
}

func TestDumpMultipleRuns(t *testing.T) {
	second := strings.Replace(synthetic, `"scheme":"Intentional"`, `"scheme":"Epidemic"`, 1)
	out := dump(t, synthetic+second)
	if !strings.Contains(out, "run 1:") || !strings.Contains(out, "run 2:") {
		t.Errorf("concatenated traces must render one section per manifest:\n%s", out)
	}
	if !strings.Contains(out, "scheme=Epidemic") {
		t.Errorf("second manifest's scheme missing:\n%s", out)
	}
}

func TestDumpHeaderlessTrace(t *testing.T) {
	out := dump(t, `{"k":"contact-begin","t":1,"a":0,"b":1}`+"\n")
	if !strings.Contains(out, "no manifest header") {
		t.Errorf("headerless trace must be flagged:\n%s", out)
	}
}

func TestDumpRejectsBadInput(t *testing.T) {
	path := t.TempDir() + "/bad.ndjson"
	if err := writeFile(path, "not json\n"); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{path}, &out); err == nil {
		t.Error("malformed line accepted")
	}
	if err := run([]string{"-bins", "0", path}, &out); err == nil {
		t.Error("-bins 0 accepted")
	}
	empty := t.TempDir() + "/empty.ndjson"
	if err := writeFile(empty, ""); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{empty}, &out); err == nil {
		t.Error("empty trace accepted")
	}
}

// Truncated, binary and oversized inputs must come back as one-line
// errors (nonzero exit via main), never as panics.
func TestDumpRejectsCorruptInput(t *testing.T) {
	cases := []struct {
		name, input string
		wantIn      string
	}{
		{"truncated json", synthetic[:len(synthetic)-20], "line"},
		{"binary garbage", "\x00\x01\x02\xff\xfe\n", "line 1"},
		{"mid-stream truncation", `{"k":"contact-begin","t":1,"a":0,"b":1}` + "\n" + `{"k":"query-iss`, "line 2"},
		{"oversized line", `{"k":"x","s":"` + strings.Repeat("a", 2<<20) + `"}`, "token too long"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := t.TempDir() + "/corrupt.ndjson"
			if err := writeFile(path, tc.input); err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			err := run([]string{path}, &out)
			if err == nil {
				t.Fatal("corrupt input accepted")
			}
			if !strings.Contains(err.Error(), tc.wantIn) {
				t.Errorf("error %q does not mention %q", err, tc.wantIn)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Errorf("error is not one line: %q", err)
			}
		})
	}
}

func TestDumpRejectsHugeBins(t *testing.T) {
	path := t.TempDir() + "/trace.ndjson"
	if err := writeFile(path, synthetic); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-bins", "1000000000000", path}, &out); err == nil {
		t.Error("absurd -bins accepted")
	}
}

func TestDumpFaultTimeline(t *testing.T) {
	faulted := synthetic +
		`{"k":"node-down","t":35,"a":2}` + "\n" +
		`{"k":"node-up","t":55,"a":2}` + "\n" +
		`{"k":"ncl-failover","t":36,"a":2,"b":5,"x":0}` + "\n" +
		`{"k":"re-replicate","t":58,"a":2,"id":5,"x":0}` + "\n"
	out := dump(t, faulted, "-bins", "2")
	for _, want := range []string{"node-down", "node-up", "ncl-failover", "re-replicate"} {
		if !strings.Contains(out, want) {
			t.Errorf("failure timeline missing %q column:\n%s", want, out)
		}
	}
}

func TestDumpSpansAttributionTable(t *testing.T) {
	out := dump(t, synthetic+spanLines, "-spans")
	for _, want := range []string{
		"scheme=Intentional",
		"9 spans across 2 traced queries, 1 satisfied",
		"critical-path delay attribution (1 slowest of 1)",
		"2>5>9>4>2", // query out, reply back
		// Total 90s: wait 63 (70.0%), transfer 5.5 (6.1%), queued residual
		// 21.5 (23.9%).
		"70.0", "23.9", "6.1",
		"Intentional aggregate over 1 satisfied queries",
		"mean delay 1.5m, mean hops 4.0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("span output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "timeline") {
		t.Errorf("-spans must replace the timeline tables:\n%s", out)
	}
}

func TestDumpSpanQueryTree(t *testing.T) {
	out := dump(t, synthetic+spanLines, "-spans", "-span-query", "0")
	for _, want := range []string{
		"span tree for query 0 (trace 00000000000000ff)",
		"[0] issue node 2 data 7 [10, 100] (1.5m)",
		"[1] q-seg 2>5 [10, 50] wait 30s xfer 1s",
		"[3] ncl-miss center 9 @75 ncl 3",
		"[5] pull node 4 @82 data 7 util 0.25",
		"[7] deliver node 2 @100 delay 1.5m",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("span tree missing %q:\n%s", want, out)
		}
	}
	// Causal indentation: the pull (depth 3) sits deeper than its
	// grandparent segment (depth 1).
	if !strings.Contains(out, "      [5] pull") {
		t.Errorf("pull span not indented below its causes:\n%s", out)
	}
}

func TestDumpSpanQueryUnsatisfiedAndUnknown(t *testing.T) {
	out := dump(t, synthetic+spanLines, "-spans", "-span-query", "1")
	if !strings.Contains(out, "not satisfied: no root span") {
		t.Errorf("unsatisfied query's spans must still print:\n%s", out)
	}
	path := t.TempDir() + "/trace.ndjson"
	if err := writeFile(path, synthetic+spanLines); err != nil {
		t.Fatal(err)
	}
	var sink strings.Builder
	err := run([]string{"-spans", "-span-query", "42", path}, &sink)
	if err == nil || !strings.Contains(err.Error(), "query 42") {
		t.Errorf("unknown -span-query must error, got %v", err)
	}
}

// A trace recorded without span events must come back from -spans as a
// one-line error (nonzero exit via main), not as empty tables.
func TestDumpSpanlessTraceErrors(t *testing.T) {
	path := t.TempDir() + "/trace.ndjson"
	if err := writeFile(path, synthetic); err != nil {
		t.Fatal(err)
	}
	var sink strings.Builder
	err := run([]string{"-spans", path}, &sink)
	if err == nil {
		t.Fatal("-spans accepted a spanless trace")
	}
	if !strings.Contains(err.Error(), "no span events") {
		t.Errorf("error %q does not say the trace has no span events", err)
	}
	if strings.Contains(err.Error(), "\n") {
		t.Errorf("error is not one line: %q", err)
	}
	if err := run([]string{"-spans", "-top", "0", path}, &sink); err == nil {
		t.Error("-top 0 accepted")
	}
}

func TestDumpSpanTimelineColumn(t *testing.T) {
	out := dump(t, synthetic+spanLines, "-bins", "2")
	if !strings.Contains(out, "span") {
		t.Errorf("default mode must count span events in the timeline:\n%s", out)
	}
}

// Kinds outside the known set still show as timeline columns: a future
// kind, and the query-answered, pull and query-retry lines of traces
// recorded before answers, pulls and retries became span-only. Such a
// trace renders the same evolution numbers: answers count once, from
// deliver spans.
func TestDumpUnknownKindStillCounted(t *testing.T) {
	out := dump(t, synthetic+spanLines+
		`{"k":"future-kind","t":90}`+"\n"+
		`{"k":"pull","t":82,"a":4,"b":2,"id":0}`+"\n"+
		`{"k":"query-answered","t":100,"a":2,"id":0,"v":90}`+"\n"+
		`{"k":"query-retry","t":62,"a":4,"id":1,"x":1}`+"\n", "-bins", "1")
	for _, col := range []string{"future-kind", "pull", "query-answered", "query-retry"} {
		if !strings.Contains(out, col) {
			t.Errorf("unknown kind %q missing from the timeline:\n%s", col, out)
		}
	}
	if got, want := evolutionEnd(out), "1.7m 0 2 1 1 0.500"; got != want {
		t.Errorf("evolution end row %q, want %q:\n%s", got, want, out)
	}
}
