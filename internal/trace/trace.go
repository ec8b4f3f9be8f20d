// Package trace models DTN contact traces: sequences of opportunistic
// pairwise contacts between mobile nodes. It provides the in-memory trace
// representation, a plain-text reader/writer compatible with
// CRAWDAD-style contact lists, synthetic generators whose aggregate
// statistics match the four traces of the paper's Table I, and the
// statistics used to reproduce that table.
//
// The paper's evaluation is trace-driven; everything downstream (contact
// graph, simulator, caching schemes) consumes only the Contact events
// defined here, so a real trace file and a synthetic trace are fully
// interchangeable.
//
//dtn:determinism
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a mobile node within a trace. IDs are dense in
// [0, Trace.Nodes).
type NodeID int

// Contact is one opportunistic contact: nodes A and B are within range
// (or associated to the same access point) from Start to End, measured in
// seconds since the beginning of the trace. Contacts are symmetric; by
// convention A < B.
type Contact struct {
	A, B       NodeID
	Start, End float64
}

// Duration returns the contact duration in seconds.
func (c Contact) Duration() float64 { return c.End - c.Start }

// Trace is a complete contact trace. Once a reader or generator has
// returned it, the contact set is frozen: the replay engine, the
// knowledge pipeline, and every scheme share one Trace value across
// sweep cells, so post-construction mutation would corrupt a whole
// sweep.
//
//dtn:immutable built by the readers/generators, then shared read-only
type Trace struct {
	// Name labels the trace in reports ("Infocom06", "MIT Reality", ...).
	Name string
	// Nodes is the number of devices; node IDs are 0..Nodes-1.
	Nodes int
	// Duration is the trace length in seconds.
	Duration float64
	// Granularity is the device scanning period in seconds (Table I);
	// purely descriptive.
	Granularity float64
	// Contacts is the contact list sorted by Start time.
	Contacts []Contact
}

// Errors returned by Validate.
var (
	ErrNoNodes      = errors.New("trace: node count must be positive")
	ErrBadContact   = errors.New("trace: malformed contact")
	ErrUnsorted     = errors.New("trace: contacts not sorted by start time")
	ErrOutOfBounds  = errors.New("trace: contact outside trace duration")
	ErrUnknownNode  = errors.New("trace: contact references unknown node")
	ErrSelfContact  = errors.New("trace: node in contact with itself")
	ErrBadInterval  = errors.New("trace: contact end not after start")
	ErrNegativeTime = errors.New("trace: negative contact start time")
	ErrNonFinite    = errors.New("trace: non-finite time")
)

// Validate checks structural invariants: positive node count, sorted
// contacts, endpoints in range, A != B, Start < End, contacts within
// [0, Duration].
func (t *Trace) Validate() error {
	if t.Nodes <= 0 {
		return ErrNoNodes
	}
	if math.IsNaN(t.Duration) || math.IsInf(t.Duration, 0) {
		return ErrNonFinite
	}
	prev := -1.0
	for i, c := range t.Contacts {
		// Explicit, because NaN slips through every ordering comparison
		// below.
		if math.IsNaN(c.Start) || math.IsInf(c.Start, 0) || math.IsNaN(c.End) || math.IsInf(c.End, 0) {
			return fmt.Errorf("contact %d: %w", i, ErrNonFinite)
		}
		if c.A == c.B {
			return fmt.Errorf("contact %d: %w", i, ErrSelfContact)
		}
		if c.A < 0 || c.B < 0 || int(c.A) >= t.Nodes || int(c.B) >= t.Nodes {
			return fmt.Errorf("contact %d: %w", i, ErrUnknownNode)
		}
		if c.Start < 0 {
			return fmt.Errorf("contact %d: %w", i, ErrNegativeTime)
		}
		if c.End <= c.Start {
			return fmt.Errorf("contact %d: %w", i, ErrBadInterval)
		}
		if c.End > t.Duration {
			return fmt.Errorf("contact %d: %w", i, ErrOutOfBounds)
		}
		if c.Start < prev {
			return fmt.Errorf("contact %d: %w", i, ErrUnsorted)
		}
		prev = c.Start
	}
	return nil
}

// SortContacts sorts the contact list by start time (stable on ties by
// end time, then endpoints) and normalizes each contact to A < B.
func (t *Trace) SortContacts() {
	for i := range t.Contacts {
		if t.Contacts[i].A > t.Contacts[i].B {
			//lint:allow immutable SortContacts is the normalization tail of every constructor
			t.Contacts[i].A, t.Contacts[i].B = t.Contacts[i].B, t.Contacts[i].A
		}
	}
	sort.Slice(t.Contacts, func(i, j int) bool {
		a, b := t.Contacts[i], t.Contacts[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
}

// Slice returns a copy of the trace restricted to contacts that start in
// [from, to), with Duration unchanged. It is used to split a trace into
// the warm-up half and the evaluation half as in Sec. VI-A.
func (t *Trace) Slice(from, to float64) *Trace {
	out := &Trace{
		Name:        t.Name,
		Nodes:       t.Nodes,
		Duration:    t.Duration,
		Granularity: t.Granularity,
	}
	for _, c := range t.Contacts {
		if c.Start >= from && c.Start < to {
			out.Contacts = append(out.Contacts, c)
		}
	}
	return out
}

// Stats are the aggregate statistics reported in Table I plus a few used
// for calibration checks.
type Stats struct {
	Nodes            int
	DurationDays     float64
	Contacts         int
	GranularitySec   float64
	PairwiseFreqDay  float64 // contacts / (pairs * days)
	MeanContactSec   float64
	DistinctPairs    int     // pairs that ever met
	PairCoverage     float64 // DistinctPairs / all pairs
	ContactsPerNode  []int   // indexed by NodeID
	MaxContactsNode  NodeID
	MeanContactsNode float64
}

// ComputeStats derives the Table I statistics from the trace.
func (t *Trace) ComputeStats() Stats {
	days := t.Duration / 86400
	s := Stats{
		Nodes:           t.Nodes,
		DurationDays:    days,
		Contacts:        len(t.Contacts),
		GranularitySec:  t.Granularity,
		ContactsPerNode: make([]int, t.Nodes),
	}
	pairs := make(map[[2]NodeID]struct{})
	var durSum float64
	for _, c := range t.Contacts {
		s.ContactsPerNode[c.A]++
		s.ContactsPerNode[c.B]++
		durSum += c.Duration()
		key := [2]NodeID{c.A, c.B}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		pairs[key] = struct{}{}
	}
	s.DistinctPairs = len(pairs)
	allPairs := t.Nodes * (t.Nodes - 1) / 2
	if allPairs > 0 {
		s.PairCoverage = float64(s.DistinctPairs) / float64(allPairs)
		if days > 0 {
			s.PairwiseFreqDay = float64(len(t.Contacts)) / (float64(allPairs) * days)
		}
	}
	if len(t.Contacts) > 0 {
		s.MeanContactSec = durSum / float64(len(t.Contacts))
	}
	var sum int
	for n, c := range s.ContactsPerNode {
		sum += c
		if c > s.ContactsPerNode[s.MaxContactsNode] {
			s.MaxContactsNode = NodeID(n)
		}
	}
	if t.Nodes > 0 {
		s.MeanContactsNode = float64(sum) / float64(t.Nodes)
	}
	return s
}
