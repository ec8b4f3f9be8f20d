package trace

import (
	"fmt"
	"io"
)

// ContactSource yields contacts one at a time in nondecreasing Start
// order, returning io.EOF after the last one. It is the streaming
// counterpart of Trace.Contacts: the simulator driver and the knowledge
// builder both replay a source without materializing it.
type ContactSource interface {
	NextContact() (Contact, error)
}

// SliceSource adapts a materialized contact slice to ContactSource.
type SliceSource struct {
	contacts []Contact
	idx      int
}

// NewSliceSource returns a source over contacts, which must already be
// sorted by start time (as Trace.Contacts is).
func NewSliceSource(contacts []Contact) *SliceSource {
	return &SliceSource{contacts: contacts}
}

// NextContact implements ContactSource.
func (s *SliceSource) NextContact() (Contact, error) {
	if s.idx >= len(s.contacts) {
		return Contact{}, io.EOF
	}
	c := s.contacts[s.idx]
	s.idx++
	return c, nil
}

// MergeSource coalesces overlapping or touching same-pair contacts
// online: a contact that starts at or before the end of its pair's
// last merged contact extends that contact instead of opening a new
// one. Only the open merge window is held in memory. It is the one
// merge every replay uses — the simulator driver's session feed and
// the knowledge layer's contact counts both read through it.
//
// A merged contact is final once the raw read position's start time has
// passed its end: raw contacts arrive sorted by start, so no later raw
// contact can begin inside it and extend it. Finalized contacts are
// emitted in creation order, which is first-contact start order, so
// the output stays sorted by start.
type MergeSource struct {
	src       ContactSource
	q         []Contact           // open window, creation order; q[0] is abs index base
	base      int64               // absolute index of q[0]
	head      int                 // next emit position within q
	last      map[[2]NodeID]int64 // pair -> absolute index of last merged contact
	rawStart  float64             // latest raw start read
	exhausted bool
	merged    int // raw contacts folded into an earlier one
	err       error
}

// NewMergeSource wraps src with online overlap merging.
func NewMergeSource(src ContactSource) *MergeSource {
	return &MergeSource{src: src, last: make(map[[2]NodeID]int64)}
}

// MergedCount returns how many raw contacts have been folded into an
// earlier overlapping contact so far.
func (m *MergeSource) MergedCount() int { return m.merged }

// NextContact implements ContactSource, emitting merged contacts.
func (m *MergeSource) NextContact() (Contact, error) {
	if m.err != nil {
		return Contact{}, m.err
	}
	// Pull raw contacts until the head of the window is final.
	for {
		if m.head < len(m.q) && (m.exhausted || m.q[m.head].End < m.rawStart) {
			break
		}
		if m.exhausted {
			m.err = io.EOF
			return Contact{}, m.err
		}
		c, err := m.src.NextContact()
		if err == io.EOF {
			m.exhausted = true
			continue
		}
		if err != nil {
			m.err = err
			return Contact{}, err
		}
		if c.Start < m.rawStart {
			m.err = fmt.Errorf("trace: merge: start %g before previous start %g", c.Start, m.rawStart)
			return Contact{}, m.err
		}
		m.rawStart = c.Start
		m.fold(c)
	}
	c := m.q[m.head]
	if abs, ok := m.last[mergeKey(c.A, c.B)]; ok && abs == m.base+int64(m.head) {
		delete(m.last, mergeKey(c.A, c.B))
	}
	m.head++
	if m.head == len(m.q) {
		m.q = m.q[:0]
		m.base += int64(m.head)
		m.head = 0
	} else if m.head >= 1024 && m.head*2 >= len(m.q) {
		n := copy(m.q, m.q[m.head:])
		m.q = m.q[:n]
		m.base += int64(m.head)
		m.head = 0
	}
	return c, nil
}

// fold merges one raw contact into the open window: extend the pair's
// last merged contact when the new one starts at or before its end,
// append otherwise.
func (m *MergeSource) fold(c Contact) {
	key := mergeKey(c.A, c.B)
	if abs, ok := m.last[key]; ok {
		if i := int(abs - m.base); i >= m.head && c.Start <= m.q[i].End {
			if c.End > m.q[i].End {
				m.q[i].End = c.End
			}
			m.merged++
			return
		}
	}
	m.q = append(m.q, c)
	m.last[key] = m.base + int64(len(m.q)-1)
}

func mergeKey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}
