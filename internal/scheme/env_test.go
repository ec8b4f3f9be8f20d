package scheme

import (
	"slices"
	"strings"
	"testing"

	"dtncache/internal/sim"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// lineTrace builds a 3-node line topology 0-1-2 with periodic contacts:
// 0-1 meet at k*period, 1-2 meet at k*period + period/2, for the whole
// duration. Node 1 is the natural hub.
func lineTrace(period, duration float64) *trace.Trace {
	tr := &trace.Trace{Name: "line", Nodes: 3, Duration: duration, Granularity: 60}
	for t := period; t+400 < duration; t += period {
		tr.Contacts = append(tr.Contacts,
			trace.Contact{A: 0, B: 1, Start: t, End: t + 300},
			trace.Contact{A: 1, B: 2, Start: t + period/2, End: t + period/2 + 300},
		)
	}
	tr.SortContacts()
	return tr
}

// manualWorkload builds a workload with one data item at node 0 and one
// query from node 2.
func manualWorkload(tr *trace.Trace, created, expires, issued, deadline float64) *workload.Workload {
	return &workload.Workload{
		Config: workload.Config{
			Nodes: tr.Nodes, GenProb: 0.2, AvgLifetime: expires - created,
			AvgSizeBits: 10e6, ZipfExponent: 1,
			Start: tr.Duration / 2, End: tr.Duration, Seed: 1,
		},
		Data: []workload.DataItem{{
			ID: 0, Source: 0, SizeBits: 10e6, Created: created, Expires: expires,
		}},
		Queries: []workload.Query{{
			ID: 0, Requester: 2, Data: 0, Issued: issued, Deadline: deadline,
		}},
	}
}

func testConfig(tr *trace.Trace) Config {
	cfg := DefaultConfig(tr.Duration)
	cfg.Trace = tr
	cfg.MetricT = 3600
	cfg.K = 1
	cfg.WarmupEnd = tr.Duration / 2
	return cfg
}

func TestConfigValidate(t *testing.T) {
	tr := lineTrace(1000, 40000)
	if err := testConfig(tr).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Trace = nil },
		func(c *Config) { c.MetricT = 0 },
		func(c *Config) { c.RefreshSec = 0 },
		func(c *Config) { c.Response = 0 },
		func(c *Config) { c.Response = 99 },
		func(c *Config) { c.K = -1 },
		func(c *Config) { c.BufferMinBits = 0 },
		func(c *Config) { c.BufferMaxBits = c.BufferMinBits - 1 },
		func(c *Config) { c.WarmupEnd = -1 },
		func(c *Config) { c.WarmupEnd = c.Trace.Duration }, // empty data-access window
		// Fault/recovery knobs.
		func(c *Config) { c.QueryRetrySec = -1 },
		func(c *Config) { c.QueryRetryMax = -1 },
		func(c *Config) { c.PushRetryBudget = -1 },
		// Malformed fault params surface through Config.Validate.
		func(c *Config) { c.Fault.KillProb = 2 },
		func(c *Config) { c.Fault.TruncateProb = -0.5 },
		func(c *Config) { c.Fault.ChurnMeanUpSec = 100 }, // churn without downtime
		func(c *Config) { c.Fault.ChurnMeanUpSec = 100; c.Fault.ChurnMeanDownSec = -1 },
		func(c *Config) { c.Fault.BlackoutNCLs = 2 }, // blackout without a window
		func(c *Config) { c.Fault.BlackoutNCLs = -1 },
	}
	for i, mutate := range bad {
		c := testConfig(tr)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewEnvRejectsMismatchedNodes(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr, 21000, 39000, 22000, 30000)
	w.Config.Nodes = 99
	if _, err := NewEnv(testConfig(tr), w, NewNoCache()); err == nil {
		t.Error("mismatched node counts accepted")
	}
}

func TestNewEnvRejectsInvalidTrace(t *testing.T) {
	tr := &trace.Trace{Nodes: 0, Duration: 100}
	w := &workload.Workload{Config: workload.Config{Nodes: 0}}
	if _, err := NewEnv(testConfig(tr), w, NewNoCache()); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestNoCacheEndToEnd(t *testing.T) {
	tr := lineTrace(1000, 40000)
	// Data at node 0 from t=21000; query from node 2 at 22000 with a
	// generous deadline. The query must travel 2->1->0 and the reply
	// 0->1->2 over the periodic contacts.
	w := manualWorkload(tr, 21000, 39000, 22000, 38000)
	env, err := NewEnv(testConfig(tr), w, NewNoCache())
	if err != nil {
		t.Fatal(err)
	}
	rep := env.Run()
	if rep.QueriesIssued != 1 {
		t.Fatalf("issued = %d, want 1", rep.QueriesIssued)
	}
	if rep.QueriesSatisfied != 1 {
		t.Fatalf("query not satisfied: %+v", rep)
	}
	if rep.MeanDelaySec <= 0 || rep.MeanDelaySec > 16000 {
		t.Errorf("delay = %v", rep.MeanDelaySec)
	}
	// NoCache never caches.
	if rep.MeanCopies != 0 {
		t.Errorf("NoCache cached %v copies", rep.MeanCopies)
	}
}

func TestQuerySuppressedWhenLocallyCached(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr, 21000, 39000, 22000, 38000)
	s := NewRandomCache()
	env, err := NewEnv(testConfig(tr), w, s)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-cache the item at the requester: the query must never be
	// issued.
	if err := env.Sim.Schedule(21500, func() {
		if _, perr := env.Buffers[2].Put(w.Data[0], 21500); perr != nil {
			t.Errorf("pre-cache failed: %v", perr)
		}
	}); err != nil {
		t.Fatal(err)
	}
	rep := env.Run()
	if rep.QueriesIssued != 0 {
		t.Errorf("query issued despite local copy: %+v", rep)
	}
}

func TestDeterministicRuns(t *testing.T) {
	tr, err := trace.GeneratePreset(trace.Infocom05, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(workload.Config{
		Nodes: tr.Nodes, GenProb: 0.2, AvgLifetime: 3 * 3600,
		AvgSizeBits: 50e6, ZipfExponent: 1,
		Start: tr.Duration / 2, End: tr.Duration, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func() interface{} {
		cfg := DefaultConfig(tr.Duration)
		cfg.Trace = tr
		cfg.MetricT = 3600
		cfg.K = 3
		env, err := NewEnv(cfg, w, NewCacheData())
		if err != nil {
			t.Fatal(err)
		}
		return env.Run()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different reports:\n%+v\n%+v", a, b)
	}
}

func TestAllBaselinesProduceSaneReports(t *testing.T) {
	tr, err := trace.GeneratePreset(trace.Infocom05, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(workload.Config{
		Nodes: tr.Nodes, GenProb: 0.2, AvgLifetime: 3 * 3600,
		AvgSizeBits: 50e6, ZipfExponent: 1,
		Start: tr.Duration / 2, End: tr.Duration, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	schemes := []Scheme{NewNoCache(), NewRandomCache(), NewCacheData(), NewBundleCache()}
	for _, s := range schemes {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			cfg := DefaultConfig(tr.Duration)
			cfg.Trace = tr
			cfg.MetricT = 3600
			cfg.K = 3
			env, err := NewEnv(cfg, w, s)
			if err != nil {
				t.Fatal(err)
			}
			rep := env.Run()
			if rep.QueriesIssued == 0 {
				t.Fatal("no queries issued")
			}
			if rep.SuccessRatio <= 0 || rep.SuccessRatio > 1 {
				t.Errorf("success ratio = %v", rep.SuccessRatio)
			}
			maxDelay := w.Config.AvgLifetime / 2
			if rep.MeanDelaySec < 0 || rep.MeanDelaySec > maxDelay {
				t.Errorf("mean delay %v outside [0, %v]", rep.MeanDelaySec, maxDelay)
			}
			if rep.MeanBufferUse < 0 || rep.MeanBufferUse > 1 {
				t.Errorf("buffer use = %v", rep.MeanBufferUse)
			}
		})
	}
}

func TestResponseProbModes(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr, 21000, 39000, 22000, 38000)
	for _, mode := range []ResponseMode{ResponseGlobal, ResponseSigmoid, ResponseAlways} {
		cfg := testConfig(tr)
		cfg.Response = mode
		env, err := NewEnv(cfg, w, NewNoCache())
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		env.Sim.RunUntil(25000)
		q := w.Queries[0]
		p := env.ResponseProb(1, q.Requester, q)
		if p < 0 || p > 1 {
			t.Errorf("mode %v: prob = %v", mode, p)
		}
		if mode == ResponseAlways && p != 1 {
			t.Errorf("always mode: prob = %v, want 1", p)
		}
		// After the deadline the probability must be 0.
		expired := q
		expired.Deadline = 100
		if got := env.ResponseProb(1, q.Requester, expired); got != 0 {
			t.Errorf("expired query prob = %v", got)
		}
	}
}

func TestEnvHelpers(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr, 21000, 39000, 22000, 38000)
	env, err := NewEnv(testConfig(tr), w, NewNoCache())
	if err != nil {
		t.Fatal(err)
	}
	env.Sim.RunUntil(22000) // past warm-up; data created
	if env.Weight(0, 0, 10) != 1 {
		t.Error("self weight must be 1")
	}
	if w01 := env.Weight(0, 1, 3600); w01 <= 0 || w01 > 1 {
		t.Errorf("weight(0,1) = %v", w01)
	}
	if _, ok := env.OwnData(0, 0); !ok {
		t.Error("source should hold its own live data")
	}
	if _, ok := env.OwnData(1, 0); ok {
		t.Error("non-source claims own data")
	}
	if !env.HasData(0, 0) {
		t.Error("HasData(source) = false")
	}
	if env.HasData(2, 0) {
		t.Error("HasData(requester) = true before delivery")
	}
	if got := env.NCLs(); len(got) != 1 {
		t.Errorf("NCLs = %v, want exactly one", got)
	}
}

func TestNCLSelectionPicksHub(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr, 21000, 39000, 22000, 38000)
	env, err := NewEnv(testConfig(tr), w, NewNoCache())
	if err != nil {
		t.Fatal(err)
	}
	env.Sim.RunUntil(21000)
	ncls := env.NCLs()
	if len(ncls) != 1 || ncls[0] != 1 {
		t.Errorf("NCLs = %v, want [1] (the hub)", ncls)
	}
}

// TestNodeContacts: the NCLByContacts score of a node is the number of
// contacts it has taken part in so far.
func TestNodeContacts(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr, 21000, 39000, 22000, 38000)
	cfg := testConfig(tr)
	cfg.NCLSelection = NCLByContacts
	env, err := NewEnv(cfg, w, NewNoCache())
	if err != nil {
		t.Fatal(err)
	}
	const at = 20900 // between contact starts
	env.Sim.RunUntil(at)
	want := make([]int, tr.Nodes)
	for _, c := range tr.Contacts {
		if c.Start <= at {
			want[c.A]++
			want[c.B]++
		}
	}
	if !slices.Equal(env.met, want) {
		t.Errorf("contact totals = %v, want %v", env.met, want)
	}
	if want[1] != want[0]+want[2] {
		t.Errorf("hub total %d, want the sum of its peers' %d + %d", want[1], want[0], want[2])
	}
}

func TestSchemeNameStrings(t *testing.T) {
	for _, s := range []Scheme{NewNoCache(), NewRandomCache(), NewCacheData(), NewBundleCache()} {
		if strings.TrimSpace(s.Name()) == "" {
			t.Error("empty scheme name")
		}
	}
}

// failingScheme reports an Init error to exercise the error path.
type failingScheme struct{ NoCache }

func (f *failingScheme) Init(*Env) error { return errInit }

var errInit = &initError{}

type initError struct{}

func (*initError) Error() string { return "boom" }

func TestNewEnvPropagatesInitError(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr, 21000, 39000, 22000, 38000)
	if _, err := NewEnv(testConfig(tr), w, &failingScheme{}); err == nil {
		t.Error("init error not propagated")
	}
}

var _ sim.Handler = (*Env)(nil)

func TestNCLSelectionStrategies(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr, 21000, 39000, 22000, 38000)
	for _, strat := range []NCLStrategy{NCLByMetric, NCLByDegree, NCLByContacts, NCLRandom} {
		cfg := testConfig(tr)
		cfg.NCLSelection = strat
		env, err := NewEnv(cfg, w, NewNoCache())
		if err != nil {
			t.Fatalf("strategy %v: %v", strat, err)
		}
		env.Sim.RunUntil(21000)
		ncls := env.NCLs()
		if len(ncls) != 1 {
			t.Fatalf("strategy %v: NCLs = %v", strat, ncls)
		}
		// On the line topology the hub (node 1) dominates every
		// deterministic strategy.
		if strat != NCLRandom && ncls[0] != 1 {
			t.Errorf("strategy %v picked %v, want hub 1", strat, ncls[0])
		}
	}
}

func TestCachePassByEvictionRules(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr, 21000, 39000, 22000, 38000)
	cd := NewCacheData()
	env, err := NewEnv(testConfig(tr), w, cd)
	if err != nil {
		t.Fatal(err)
	}
	env.Sim.RunUntil(22000)
	b := cd.base
	node := trace.NodeID(1)
	// Shrink the buffer view by filling it: capacity is random in
	// [200,600]Mb; insert items sized to leave room for exactly one more.
	capBits := env.Buffers[node].Capacity()
	half := capBits / 2
	mk := func(id int, size float64) workload.DataItem {
		return workload.DataItem{
			ID: workload.DataID(id), Source: 0, SizeBits: size,
			Created: 21000, Expires: 39000,
		}
	}
	occupied := mk(10, half+1) // more than half: a second one cannot fit
	if _, err := env.Buffers[node].Put(occupied, 22000); err != nil {
		t.Fatal(err)
	}
	// Give the cached item some popularity (requests observed locally).
	b.Observe(node, 10, 21500)
	b.Observe(node, 10, 21800)

	utility := func(id workload.DataID, expires float64) float64 {
		rs := b.Stats(node, id)
		return env.Popularity(&rs, expires)
	}
	// A never-requested incoming item must NOT evict the popular one.
	cd.CachePassBy(b, node, mk(11, half+1), utility)
	if !env.Buffers[node].Has(10) || env.Buffers[node].Has(11) {
		t.Error("unpopular pass-by data evicted a popular entry")
	}
	// Flip the roles: a node holding never-requested data must yield it
	// to a requested incoming item.
	env.Buffers[node].Remove(10)
	if _, err := env.Buffers[node].Put(mk(11, half+1), 22100); err != nil {
		t.Fatal(err)
	}
	b.Observe(node, 12, 21200)
	b.Observe(node, 12, 21900)
	cd.CachePassBy(b, node, mk(12, half+1), utility)
	if env.Buffers[node].Has(11) || !env.Buffers[node].Has(12) {
		t.Error("popular pass-by data failed to displace a never-requested entry")
	}
	// Oversize and duplicate items are rejected without disturbance.
	cd.CachePassBy(b, node, mk(13, capBits*2), utility)
	if env.Buffers[node].Has(13) {
		t.Error("oversize item cached")
	}
	cd.CachePassBy(b, node, mk(12, half+1), utility)
	if env.Buffers[node].Len() != 1 {
		t.Errorf("buffer disturbed: %d entries", env.Buffers[node].Len())
	}
}
