package engine_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"dtncache/internal/engine"
	"dtncache/internal/experiment"
	"dtncache/internal/obs"
	"dtncache/internal/scheme"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

func infocom(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := trace.GeneratePreset(trace.Infocom05, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func reality(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := trace.GeneratePreset(trace.MITReality, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewRequiresTrace(t *testing.T) {
	if _, err := engine.New(engine.Config{}); err == nil {
		t.Fatal("New without a trace must fail")
	}
	if _, err := engine.New(engine.Config{Trace: infocom(t), Scheme: "nope"}); err == nil {
		t.Fatal("New with an unknown scheme must fail")
	}
}

// TestNewRejectsBadConfig: one Validate covers batch and Live engines
// alike, so a non-finite knob or a workload parameter no publish could
// satisfy fails New with an error naming the field, instead of running
// with empty buffers, no queries or failing every default publish.
func TestNewRejectsBadConfig(t *testing.T) {
	tr, nan := infocom(t), math.NaN()
	cases := []struct {
		field  string
		mutate func(*engine.Config)
	}{
		{"BufferMinBits", func(c *engine.Config) { c.BufferMinBits = nan }},
		{"BufferMaxBits", func(c *engine.Config) { c.BufferMaxBits = nan }},
		{"ZipfExponent", func(c *engine.Config) { c.ZipfExponent = nan }},
		{"AvgSizeBits", func(c *engine.Config) { c.AvgSizeBits = nan }},
		{"QueryRetrySec", func(c *engine.Config) { c.QueryRetrySec = nan }},
		{"MetricT", func(c *engine.Config) { c.MetricT = math.Inf(1) }},
		{"AvgSizeBits", func(c *engine.Config) { c.AvgSizeBits = -1 }},
		{"GenProb", func(c *engine.Config) { c.GenProb = 2 }},
		{"AvgLifetime", func(c *engine.Config) { c.AvgLifetime = -3600; c.Response = scheme.ResponseAlways }},
		{"AvgLifetime", func(c *engine.Config) { c.AvgLifetime = -3600 }},
		{"UtilityFloor", func(c *engine.Config) { c.UtilityFloor = -0.5 }},
		{"QuerySprayCopies", func(c *engine.Config) { c.QuerySprayCopies = -4 }},
	}
	for _, live := range []bool{false, true} {
		for _, tc := range cases {
			cfg := engine.Config{Trace: tr, AvgLifetime: 3 * 3600, Live: live}
			tc.mutate(&cfg)
			_, err := engine.New(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("live=%v, bad %s: New returned %v, want an error naming the field", live, tc.field, err)
			}
		}
	}
}

func TestNormalizedDefaults(t *testing.T) {
	c, err := engine.Config{Trace: infocom(t)}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if c.Scheme != engine.SchemeIntentional {
		t.Errorf("default scheme = %q", c.Scheme)
	}
	if c.AvgLifetime != 7*86400 || c.K != 8 || c.Seed != 1 {
		t.Errorf("paper defaults not applied: %+v", c)
	}
	if c.MetricT != scheme.DefaultMetricT(string(trace.Infocom05)) {
		t.Errorf("MetricT = %v", c.MetricT)
	}
	// Idempotence: normalizing a normalized config changes nothing.
	// Config holds a func field (Stream) so it is not ==-comparable;
	// the %+v rendering is the same equality the manifest digest uses.
	c2, err := c.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", c2) != fmt.Sprintf("%+v", c) {
		t.Errorf("normalization not idempotent: %+v vs %+v", c2, c)
	}
}

// TestRunMatchesExperiment pins the refactor's core promise: the batch
// engine replay is the exact code path experiment.Run executes, so the
// integer-valued headline metrics agree exactly.
func TestRunMatchesExperiment(t *testing.T) {
	tr := reality(t)
	cfg := engine.Config{Trace: tr, Scheme: engine.SchemeIntentional}
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := experiment.Run(engine.Config{Trace: tr}, engine.SchemeIntentional)
	if err != nil {
		t.Fatal(err)
	}
	if got != rep {
		t.Errorf("engine.Run != experiment.Run:\n%+v\n%+v", rep, got)
	}
	if rep.QueriesIssued == 0 {
		t.Error("expected a nonzero batch workload on MIT Reality")
	}
}

// TestBatchCountersMatchReport ties the obs counters the /metrics
// endpoint exposes to the report the /report endpoint computes.
func TestBatchCountersMatchReport(t *testing.T) {
	rec := obs.NewRecorder(nil)
	eng, err := engine.New(engine.Config{Trace: reality(t), Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter("query", "issued").Value(); got != uint64(rep.QueriesIssued) {
		t.Errorf("query/issued counter = %d, report says %d", got, rep.QueriesIssued)
	}
	var sb strings.Builder
	if err := rec.Registry().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dtn_query_issued_total") {
		t.Error("prom output missing dtn_query_issued_total")
	}
}

func TestLivePublishQueryAdvance(t *testing.T) {
	eng, err := engine.New(engine.Config{Trace: infocom(t), Live: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep := eng.Report(); rep.QueriesIssued != 0 {
		t.Fatalf("live engine starts with %d queries issued", rep.QueriesIssued)
	}
	item, err := eng.Publish(engine.PublishSpec{Source: 3})
	if err != nil {
		t.Fatal(err)
	}
	if item.ID != 0 || item.SizeBits != 100e6 || item.Expires != 7*86400 {
		t.Errorf("publish defaults wrong: %+v", item)
	}
	item2, err := eng.Publish(engine.PublishSpec{Source: 5, SizeBits: 1e6, LifetimeSec: 3600})
	if err != nil {
		t.Fatal(err)
	}
	if item2.ID != 1 {
		t.Errorf("data IDs not dense: %d", item2.ID)
	}
	if _, err := eng.Publish(engine.PublishSpec{Source: -1}); err == nil {
		t.Error("negative source must fail")
	}
	if _, err := eng.Query(engine.QuerySpec{Requester: 2, Data: 99}); err == nil {
		t.Error("unknown data ID must fail")
	}
	for _, c := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := eng.Query(engine.QuerySpec{Requester: 2, Data: item.ID, ConstraintSec: c}); err == nil {
			t.Errorf("time constraint %v must fail", c)
		}
	}
	res, err := eng.Query(engine.QuerySpec{Requester: 2, Data: item.ID})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Issued || res.Query.ID != 0 || res.Query.Deadline != 7*86400/2 {
		t.Errorf("query result wrong: %+v", res)
	}
	if eng.Satisfied(res.Query.ID) {
		t.Error("query satisfied before any contact")
	}
	if n, err := eng.Advance(3600); err != nil || eng.Now() != 3600 {
		t.Errorf("Advance: n=%d err=%v now=%v", n, err, eng.Now())
	}
	// Advance backwards is a no-op, never an error.
	if _, err := eng.Advance(10); err != nil || eng.Now() != 3600 {
		t.Errorf("backwards Advance moved the clock: now=%v err=%v", eng.Now(), err)
	}
	if rep := eng.Report(); rep.QueriesIssued != 1 {
		t.Errorf("report QueriesIssued = %d, want 1", rep.QueriesIssued)
	}
	if v := eng.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations on a fresh live run: %v", v)
	}
}

// TestLiveDeterminism replays the same live request sequence twice and
// expects bit-identical reports: the engine contains no hidden
// nondeterminism even when driven through the service API.
func TestLiveDeterminism(t *testing.T) {
	run := func() (int, float64) {
		tr, err := trace.GeneratePreset(trace.Infocom05, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(engine.Config{Trace: tr, Live: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := eng.Publish(engine.PublishSpec{Source: i}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			if _, err := eng.Query(engine.QuerySpec{Requester: i % 41, Data: workload.DataID(i % 5)}); err != nil {
				t.Fatal(err)
			}
			if i%10 == 9 {
				if _, err := eng.Advance(eng.Now() + 1800); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := eng.Advance(eng.Duration()); err != nil {
			t.Fatal(err)
		}
		rep := eng.Report()
		return rep.QueriesSatisfied, rep.MeanDelaySec
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 || d1 != d2 {
		t.Errorf("live replay not deterministic: (%d, %v) vs (%d, %v)", s1, d1, s2, d2)
	}
}

func TestCloseSemantics(t *testing.T) {
	eng, err := engine.New(engine.Config{Trace: infocom(t), Live: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := eng.Publish(engine.PublishSpec{Source: 0}); err != engine.ErrClosed {
		t.Errorf("Publish after Close: %v", err)
	}
	if _, err := eng.Query(engine.QuerySpec{Requester: 0, Data: 0}); err != engine.ErrClosed {
		t.Errorf("Query after Close: %v", err)
	}
	if _, err := eng.Advance(10); err != engine.ErrClosed {
		t.Errorf("Advance after Close: %v", err)
	}
	if _, err := eng.Run(); err != engine.ErrClosed {
		t.Errorf("Run after Close: %v", err)
	}
}

// TestConcurrentDrivers hammers one engine from interleaved goroutines
// — the dtnserved situation: HTTP handlers publishing and querying
// while a pacer advances the clock. Run under -race this pins the
// mutex serialization of the whole API surface.
func TestConcurrentDrivers(t *testing.T) {
	tr := infocom(t)
	eng, err := engine.New(engine.Config{Trace: tr, Live: true})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const rounds = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//dtn:workerpool hammer drivers, joined by the Wait below
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch i % 6 {
				case 0:
					if _, err := eng.Publish(engine.PublishSpec{Source: (w*31 + i) % tr.Nodes}); err != nil {
						t.Errorf("publish: %v", err)
						return
					}
				case 1, 2:
					// Races with publishes, so the ID may not exist yet;
					// only the unknown-ID error is acceptable.
					if _, err := eng.Query(engine.QuerySpec{
						Requester: (w + i) % tr.Nodes,
						Data:      workload.DataID(i % 50),
					}); err != nil && !strings.Contains(err.Error(), "unknown data ID") {
						t.Errorf("query: %v", err)
						return
					}
				case 3:
					if _, err := eng.Advance(eng.Now() + 5); err != nil {
						t.Errorf("advance: %v", err)
						return
					}
				case 4:
					_ = eng.Report()
					_ = eng.Now()
					_ = eng.Pending()
				case 5:
					if v := eng.CheckInvariants(); len(v) != 0 {
						t.Errorf("violations under load: %v", v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	rep := eng.Report()
	if rep.QueriesIssued == 0 {
		t.Error("hammer issued no queries")
	}
	if eng.Processed() == 0 {
		t.Error("hammer processed no events")
	}
}

// TestConcurrentCloseDuringOps races Close against in-flight Publish,
// Query, Advance and IngestContacts from many goroutines (the dtnserved
// SIGTERM-drain shape): every op must return either a real result, a
// deterministic validation error, or ErrClosed — never panic, deadlock
// or trip the race detector — and Close itself must stay idempotent
// under concurrent invocation.
func TestConcurrentCloseDuringOps(t *testing.T) {
	tr := infocom(t)
	eng, err := engine.New(engine.Config{Trace: tr, Live: true})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const rounds = 200
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//dtn:workerpool op hammer racing Close, joined by the Wait below
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				var err error
				switch i % 4 {
				case 0:
					_, err = eng.Publish(engine.PublishSpec{Source: (w*17 + i) % tr.Nodes})
				case 1:
					_, err = eng.Query(engine.QuerySpec{Requester: (w + i) % tr.Nodes, Data: workload.DataID(i % 50)})
					if err != nil && strings.Contains(err.Error(), "unknown data ID") {
						err = nil // racing the publishes; deterministic rejection
					}
				case 2:
					_, err = eng.Advance(eng.Now() + 1)
				case 3:
					now := eng.Now()
					_, err = eng.IngestContacts([]trace.Contact{
						{A: 0, B: trace.NodeID(1 + (w+i)%(tr.Nodes-1)), Start: now + 1, End: now + 2},
					})
					if err != nil && strings.Contains(err.Error(), "after trace duration") {
						err = nil // clock already near the end; deterministic rejection
					}
				}
				if err != nil && err != engine.ErrClosed {
					t.Errorf("worker %d op %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	// Two goroutines race Close against the op hammer and each other.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		//dtn:workerpool concurrent closers, joined by the Wait below
		go func() {
			defer wg.Done()
			<-start
			if err := eng.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Errorf("Close after the race: %v", err)
	}
	if _, err := eng.Advance(eng.Now() + 1); err != engine.ErrClosed {
		t.Errorf("Advance after close: %v", err)
	}
	if _, err := eng.IngestContacts([]trace.Contact{{A: 0, B: 1, Start: 1, End: 2}}); err != engine.ErrClosed {
		t.Errorf("IngestContacts after close: %v", err)
	}
}

// TestBatchEngineLiveInjection drives Publish and Query into a batch
// (non-live) engine mid-run. The injected item and query append to the
// workload while the batch schedule is still being fed, so they must
// neither be dispatched a second time nor displace batch items. The
// expected values were computed with the workload preloaded into the
// event heap, one event per data item and query.
func TestBatchEngineLiveInjection(t *testing.T) {
	tr := infocom(t)
	eng, err := engine.New(engine.Config{Trace: tr, AvgLifetime: 12 * 3600})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := eng.Pending(), pinnedPendingStart; got != want {
		t.Errorf("Pending() at t=0 = %d, want %d", got, want)
	}
	if _, err := eng.Advance(0.55 * tr.Duration); err != nil {
		t.Fatal(err)
	}
	item, err := eng.Publish(engine.PublishSpec{Source: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(engine.QuerySpec{Requester: 7, Data: item.ID})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Issued {
		t.Fatalf("injected query not issued: %+v", res)
	}
	if got, want := eng.Pending(), pinnedPendingMid; got != want {
		t.Errorf("Pending() mid-run = %d, want %d", got, want)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%+v", rep); got != pinnedInjectedReport {
		t.Errorf("report\n got %s\nwant %s", got, pinnedInjectedReport)
	}
}

const (
	pinnedPendingStart   = 220
	pinnedPendingMid     = 242
	pinnedInjectedReport = "{QueriesIssued:168 QueriesSatisfied:161 SuccessRatio:0.9583333333333334 " +
		"MeanDelaySec:3268.9894179391895 MedianDelaySec:1837.4442388137977 P90DelaySec:7386.549523623486 " +
		"MeanCopies:5.492473207348208 MeanBufferUse:0.3019739852489886 RedundantDeliveries:529 " +
		"ReplacementMoves:1817 DataBits:6.875899651516996e+11 ControlBits:2.258144e+10 " +
		"MeanPhaseSec:[673.1748095636324 638.4067496909393 1957.4078586846176] PhaseSamples:161}"
)
