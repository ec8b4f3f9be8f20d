package scheme

import (
	"fmt"
	"reflect"
	"testing"

	"dtncache/internal/sim"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// orderScheme logs every data, query and contact-start callback with
// the knowledge version current when it ran.
type orderScheme struct {
	e   *Env
	log []string
}

func (s *orderScheme) Name() string              { return "order" }
func (s *orderScheme) Init(e *Env) error         { s.e = e; return nil }
func (s *orderScheme) OnContactEnd(*sim.Session) {}
func (s *orderScheme) OnSweep(float64)           {}
func (s *orderScheme) note(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf("t=%g v%d ", s.e.Sim.Now(), s.e.Knowledge().Version())+fmt.Sprintf(format, args...))
}
func (s *orderScheme) OnData(item workload.DataItem) { s.note("data %d", item.ID) }
func (s *orderScheme) OnQuery(q workload.Query)      { s.note("query %d", q.ID) }
func (s *orderScheme) OnContactStart(sess *sim.Session) {
	s.note("contact %d-%d", sess.A, sess.B)
}

// TestWorkloadFeedTieOrder pins the dispatch order of events sharing a
// timestamp to the order of a bulk preload: contact begins first (their
// sequence numbers lie below sim.ReservedSeqBase), then the WarmupEnd
// knowledge refresh (scheduled before the workload), then data items
// in ID order, then queries in ID order.
func TestWorkloadFeedTieOrder(t *testing.T) {
	tr := &trace.Trace{Name: "ties", Nodes: 3, Duration: 10000, Granularity: 60, Contacts: []trace.Contact{
		{A: 0, B: 1, Start: 1000, End: 1200},
		{A: 0, B: 1, Start: 5000, End: 5300},
		{A: 1, B: 2, Start: 7000, End: 7100},
	}}
	w := &workload.Workload{
		Config: workload.Config{
			Nodes: tr.Nodes, GenProb: 0.2, AvgLifetime: 4000, AvgSizeBits: 10e6,
			ZipfExponent: 1, Start: tr.Duration / 2, End: tr.Duration, Seed: 1,
		},
		Data: []workload.DataItem{
			{ID: 0, Source: 0, SizeBits: 10e6, Created: 5000, Expires: 9000},
			{ID: 1, Source: 1, SizeBits: 10e6, Created: 5000, Expires: 9000},
			{ID: 2, Source: 1, SizeBits: 10e6, Created: 7000, Expires: 9000},
		},
		Queries: []workload.Query{
			{ID: 0, Requester: 2, Data: 0, Issued: 5000, Deadline: 8000},
			{ID: 1, Requester: 2, Data: 1, Issued: 5000, Deadline: 8000},
			{ID: 2, Requester: 0, Data: 1, Issued: 6000, Deadline: 8000},
			{ID: 3, Requester: 0, Data: 2, Issued: 7000, Deadline: 8000},
		},
	}
	s := &orderScheme{}
	cfg := testConfig(tr)
	cfg.RefreshSec = 100000 // one refresh, at WarmupEnd
	env, err := NewEnv(cfg, w, s)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := env.Pending(), env.Sim.Pending()+len(w.Data)+len(w.Queries)-1; got != want {
		t.Errorf("Pending() = %d, want %d (one workload event in the heap)", got, want)
	}
	env.Run()
	want := []string{
		"t=1000 v0 contact 0-1",
		"t=5000 v0 contact 0-1",
		"t=5000 v1 data 0",
		"t=5000 v1 data 1",
		"t=5000 v1 query 0",
		"t=5000 v1 query 1",
		"t=6000 v1 query 2",
		"t=7000 v1 contact 1-2",
		"t=7000 v1 data 2",
		"t=7000 v1 query 3",
	}
	if !reflect.DeepEqual(s.log, want) {
		t.Errorf("dispatch order\n got %q\nwant %q", s.log, want)
	}
	if got := env.Pending(); got != env.Sim.Pending() {
		t.Errorf("Pending() = %d after the run, heap holds %d", got, env.Sim.Pending())
	}
}

// TestWorkloadFeedRejectsUnsortedSchedule: the lazy feed merges two
// time-sorted schedules, so NewEnv refuses an unsorted one.
func TestWorkloadFeedRejectsUnsortedSchedule(t *testing.T) {
	tr := lineTrace(1000, 40000)
	w := manualWorkload(tr, 21000, 39000, 25000, 38000)
	w.Queries = append(w.Queries, workload.Query{ID: 1, Requester: 2, Data: 0, Issued: 22000, Deadline: 38000})
	if _, err := NewEnv(testConfig(tr), w, &NoCache{}); err == nil {
		t.Fatal("unsorted queries accepted")
	}
}
