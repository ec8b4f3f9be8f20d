package trace

import (
	"errors"
	"math"
	"testing"
)

func validTrace() *Trace {
	return &Trace{
		Name:        "test",
		Nodes:       3,
		Duration:    1000,
		Granularity: 10,
		Contacts: []Contact{
			{A: 0, B: 1, Start: 10, End: 20},
			{A: 1, B: 2, Start: 15, End: 40},
			{A: 0, B: 2, Start: 100, End: 130},
		},
	}
}

func TestContactHelpers(t *testing.T) {
	c := Contact{A: 2, B: 5, Start: 10, End: 25}
	if c.Duration() != 15 {
		t.Errorf("Duration = %v", c.Duration())
	}
}

func TestValidateAcceptsGoodTrace(t *testing.T) {
	if err := validTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Trace)
		want   error
	}{
		{"no nodes", func(tr *Trace) { tr.Nodes = 0 }, ErrNoNodes},                                          //lint:allow immutable corrupt the node count to exercise Validate
		{"self contact", func(tr *Trace) { tr.Contacts[0].B = 0 }, ErrSelfContact},                          //lint:allow immutable forge a self contact to exercise Validate
		{"unknown node", func(tr *Trace) { tr.Contacts[0].B = 9 }, ErrUnknownNode},                          //lint:allow immutable point at a missing node to exercise Validate
		{"negative node", func(tr *Trace) { tr.Contacts[0].A = -1 }, ErrUnknownNode},                        //lint:allow immutable negative endpoint to exercise Validate
		{"negative time", func(tr *Trace) { tr.Contacts[0].Start = -5 }, ErrNegativeTime},                   //lint:allow immutable rewind before zero to exercise Validate
		{"bad interval", func(tr *Trace) { tr.Contacts[0].End = tr.Contacts[0].Start }, ErrBadInterval},     //lint:allow immutable collapse the interval to exercise Validate
		{"out of bounds", func(tr *Trace) { tr.Contacts[2].End = 5000 }, ErrOutOfBounds},                    //lint:allow immutable overrun the duration to exercise Validate
		{"unsorted", func(tr *Trace) { tr.Contacts[0].Start = 500; tr.Contacts[0].End = 600 }, ErrUnsorted}, //lint:allow immutable break the sort order to exercise Validate
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := validTrace()
			c.mutate(tr)
			if err := tr.Validate(); !errors.Is(err, c.want) {
				t.Errorf("got %v, want %v", err, c.want)
			}
		})
	}
}

func TestSortContactsNormalizes(t *testing.T) {
	tr := &Trace{
		Nodes:    4,
		Duration: 100,
		Contacts: []Contact{
			{A: 3, B: 1, Start: 50, End: 60},
			{A: 2, B: 0, Start: 10, End: 20},
		},
	}
	tr.SortContacts()
	if tr.Contacts[0].Start != 10 {
		t.Error("not sorted by start")
	}
	for _, c := range tr.Contacts {
		if c.A > c.B {
			t.Errorf("contact not normalized: %+v", c)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestComputeStats(t *testing.T) {
	tr := validTrace()
	s := tr.ComputeStats()
	if s.Contacts != 3 || s.Nodes != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.DistinctPairs != 3 || s.PairCoverage != 1 {
		t.Errorf("pairs = %d coverage = %v", s.DistinctPairs, s.PairCoverage)
	}
	wantMeanDur := (10.0 + 25 + 30) / 3
	if math.Abs(s.MeanContactSec-wantMeanDur) > 1e-9 {
		t.Errorf("mean contact dur = %v, want %v", s.MeanContactSec, wantMeanDur)
	}
	// Each node appears in exactly 2 contacts.
	for n, c := range s.ContactsPerNode {
		if c != 2 {
			t.Errorf("node %d contacts = %d, want 2", n, c)
		}
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	tr := &Trace{Nodes: 2, Duration: 100}
	s := tr.ComputeStats()
	if s.Contacts != 0 || s.MeanContactSec != 0 || s.PairwiseFreqDay != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}
