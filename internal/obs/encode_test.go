package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestAppendEventGolden(t *testing.T) {
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{
			"all-fields",
			appendEvent(nil, KindPush, 12.5, 3, 7, 42, 2, 0.625, "replace"),
			`{"k":"push","t":12.5,"a":3,"b":7,"id":42,"x":2,"v":0.625,"s":"replace"}`,
		},
		{
			"omissions", // negative a/b/id, zero x/v, empty s all drop out
			appendEvent(nil, KindKnowledge, 0, -1, -1, -1, 0, 0, ""),
			`{"k":"knowledge","t":0}`,
		},
		{
			"contact",
			appendEvent(nil, KindContactBegin, 3600, 0, 12, -1, 0, 0, ""),
			`{"k":"contact-begin","t":3600,"a":0,"b":12}`,
		},
		{
			"float-shortest", // shortest round-trip rendering, not %f
			appendEvent(nil, KindCacheInsert, 0.1, 5, -1, 9, 0, 1e9, ""),
			`{"k":"cache-insert","t":0.1,"a":5,"id":9,"v":1e+09}`,
		},
	}
	for _, c := range cases {
		if string(c.got) != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, c.got, c.want)
		}
		if !json.Valid(c.got) {
			t.Errorf("%s: not valid JSON: %s", c.name, c.got)
		}
	}
}

func TestAppendSpanGolden(t *testing.T) {
	cases := []struct {
		name string
		ev   SpanEvent
		want string
	}{
		{
			"segment", // custody segment: wait [t,nq], transfer v seconds
			SpanEvent{Trace: 0xdeadbeef01234567, ID: 3, Parent: 1, Op: "q-seg",
				Start: 100, End: 260.5, Enq: 250, A: 4, B: 9, Query: 7, Aux: 12, V: 10.5},
			`{"k":"span","t":100,"e":260.5,"nq":250,"tr":"deadbeef01234567","sp":3,"pa":1,` +
				`"op":"q-seg","a":4,"b":9,"id":7,"x":12,"v":10.5}`,
		},
		{
			"root", // parent -1 omitted, nq == t omitted, b < 0 omitted
			SpanEvent{Trace: 1, ID: 0, Parent: -1, Op: "issue",
				Start: 10, End: 500, Enq: 10, A: 2, B: -1, Query: 0, Aux: 5},
			`{"k":"span","t":10,"e":500,"tr":"0000000000000001","sp":0,"op":"issue","a":2,"id":0,"x":5}`,
		},
		{
			"point", // zero-extent span, zero x/v omitted, id 0 still present
			SpanEvent{Trace: 0xffffffffffffffff, ID: 5, Parent: 2, Op: "pull",
				Start: 33.25, End: 33.25, Enq: 33.25, A: 1, B: -1, Query: 0},
			`{"k":"span","t":33.25,"e":33.25,"tr":"ffffffffffffffff","sp":5,"pa":2,"op":"pull","a":1,"id":0}`,
		},
	}
	for _, c := range cases {
		got := appendSpan(nil, c.ev)
		if string(got) != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
		if !json.Valid(got) {
			t.Errorf("%s: not valid JSON: %s", c.name, got)
		}
	}
}

func TestAppendEventDeterministic(t *testing.T) {
	a := appendEvent(nil, KindCacheInsert, 1234.5678, 9, -1, 77, 0, 0.333, "")
	b := appendEvent(nil, KindCacheInsert, 1234.5678, 9, -1, 77, 0, 0.333, "")
	if string(a) != string(b) {
		t.Errorf("same event encoded differently:\n%s\n%s", a, b)
	}
}

func TestAppendManifestGolden(t *testing.T) {
	m := Manifest{
		Trace: "Infocom05", Scheme: "Intentional", Seed: 7,
		ConfigDigest: "deadbeefdeadbeef",
		GoVersion:    "go1.24.0", GoMaxProcs: 4, GitDescribe: "abc1234",
	}
	got := appendManifest(nil, m)
	want := `{"k":"manifest","trace":"Infocom05","scheme":"Intentional","seed":7,` +
		`"config_digest":"deadbeefdeadbeef","go_version":"go1.24.0","gomaxprocs":4,"git_describe":"abc1234"}`
	if string(got) != want {
		t.Errorf("manifest:\n got %s\nwant %s", got, want)
	}
	if string(m.AppendJSON(nil)) != want {
		t.Error("Manifest.AppendJSON diverges from appendManifest")
	}
	if !json.Valid(got) {
		t.Errorf("manifest not valid JSON: %s", got)
	}
	// Round-trip through encoding/json recovers every field.
	var back Manifest
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Errorf("round-trip = %+v, want %+v", back, m)
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		name := k.String()
		if name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		got, ok := KindByName(name)
		if !ok || got != k {
			t.Errorf("KindByName(%q) = %v/%v, want %v/true", name, got, ok, k)
		}
	}
	if _, ok := KindByName("no-such-kind"); ok {
		t.Error("unknown name resolved")
	}
	if Kind(250).String() != "unknown" {
		t.Error("out-of-range kind must stringify as unknown")
	}
}

func TestConfigDigestStable(t *testing.T) {
	type cfg struct {
		K    int
		Zipf float64
		Name string
	}
	a := ConfigDigest(cfg{8, 1.0, "x"})
	b := ConfigDigest(cfg{8, 1.0, "x"})
	if a != b {
		t.Errorf("same config digests differ: %s vs %s", a, b)
	}
	if len(a) != 16 {
		t.Errorf("digest %q is not 16 hex chars", a)
	}
	if c := ConfigDigest(cfg{9, 1.0, "x"}); c == a {
		t.Error("different configs share a digest")
	}
}

func TestRecorderEventStream(t *testing.T) {
	var cb closeBuffer
	r := NewRecorder(NewStreamSink(&cb))
	r.Manifest(Manifest{Trace: "T", Seed: 1, GoVersion: "go1.24.0", GoMaxProcs: 1})
	r.ContactBegin(10, 1, 2)
	r.QueryIssued(20, 3, 0, 5)
	r.NodeDown(30, 3)
	r.QueryExpired(40, 4, 1)
	r.CacheInsert(50, 2, 5, 0.5)
	r.CacheEvict(60, 2, 5, 0.1)
	r.Push(70, 2, 6, 5, 1)
	r.Failover(80, 2, 3, 0)
	r.Knowledge(90, 3)
	r.ContactEnd(95, 1, 2, 4096)
	r.Cell(1, 1.5, "Intentional")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(cb.String(), "\n"), "\n")
	if len(lines) != 12 {
		t.Fatalf("recorded %d lines, want 12", len(lines))
	}
	for i, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Errorf("line %d invalid JSON: %s", i, l)
		}
		var ev struct {
			K string `json:"k"`
		}
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatal(err)
		}
		if i == 0 && ev.K != "manifest" {
			t.Errorf("first line kind %q, want manifest", ev.K)
		}
		if _, ok := KindByName(ev.K); !ok {
			t.Errorf("line %d has unknown kind %q", i, ev.K)
		}
	}
}

// FuzzEncodeEvent asserts the hand-rolled encoder always emits one
// valid single-line JSON object for any input, including hostile
// labels and non-finite floats kept out by convention but not by type.
func FuzzEncodeEvent(f *testing.F) {
	f.Add(uint8(1), 12.5, int32(3), int32(7), int64(42), int64(2), 0.625, "replace")
	f.Add(uint8(0), 0.0, int32(-1), int32(-1), int64(-1), int64(0), 0.0, "")
	f.Add(uint8(11), math.MaxFloat64, int32(math.MaxInt32), int32(0), int64(math.MaxInt64), int64(-5), -0.0, "a\"b\\c\nd")
	f.Add(uint8(200), -1.0, int32(5), int32(5), int64(5), int64(5), 5.0, "\x00\xff")
	f.Fuzz(func(t *testing.T, k uint8, tm float64, a, b int32, id, aux int64, v float64, label string) {
		if math.IsNaN(tm) || math.IsInf(tm, 0) || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip("non-finite floats are excluded by the recorder's inputs (virtual time, utilities)")
		}
		line := appendEvent(nil, Kind(k), tm, a, b, id, aux, v, label)
		if !json.Valid(line) {
			t.Fatalf("invalid JSON: %q", line)
		}
		for _, c := range line {
			if c == '\n' {
				t.Fatalf("embedded newline breaks NDJSON framing: %q", line)
			}
		}
		// Deterministic: re-encoding yields identical bytes.
		if again := appendEvent(nil, Kind(k), tm, a, b, id, aux, v, label); string(again) != string(line) {
			t.Fatalf("non-deterministic encoding:\n%q\n%q", line, again)
		}
	})
}

// FuzzEncodeSpan is FuzzEncodeEvent's twin for the span line family:
// any span must encode to one valid single-line JSON object,
// deterministically.
func FuzzEncodeSpan(f *testing.F) {
	f.Add(uint64(0xdeadbeef), int64(3), int64(1), "q-seg", 100.0, 260.5, 250.0, int32(4), int32(9), int64(7), int64(12), 10.5)
	f.Add(uint64(0), int64(0), int64(-1), "issue", 0.0, 0.0, 0.0, int32(-1), int32(-1), int64(0), int64(0), 0.0)
	f.Add(uint64(math.MaxUint64), int64(math.MaxInt64), int64(math.MinInt64), "a\"b\\c\nd", -1.5, math.MaxFloat64, -0.0, int32(math.MinInt32), int32(math.MaxInt32), int64(-9), int64(-1), 1e-308)
	f.Fuzz(func(t *testing.T, tr uint64, id, pa int64, op string, start, end, enq float64, a, b int32, q, aux int64, v float64) {
		for _, x := range []float64{start, end, enq, v} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip("non-finite floats are excluded by the tracer's inputs (virtual time)")
			}
		}
		ev := SpanEvent{Trace: tr, ID: id, Parent: pa, Op: op,
			Start: start, End: end, Enq: enq, A: a, B: b, Query: q, Aux: aux, V: v}
		line := appendSpan(nil, ev)
		if !json.Valid(line) {
			t.Fatalf("invalid JSON: %q", line)
		}
		for _, c := range line {
			if c == '\n' {
				t.Fatalf("embedded newline breaks NDJSON framing: %q", line)
			}
		}
		if again := appendSpan(nil, ev); string(again) != string(line) {
			t.Fatalf("non-deterministic encoding:\n%q\n%q", line, again)
		}
	})
}
