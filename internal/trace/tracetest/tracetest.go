// Package tracetest holds reference implementations that tests of the
// contact-replay layers compare against.
package tracetest

import "dtncache/internal/trace"

// ReferenceMerge is the materialized reference for trace.MergeSource:
// it coalesces overlapping or touching contacts of the same pair,
// folding a contact into the pair's last merged contact when it starts
// at or before that contact's end and keeping first-appearance order.
// Input must be sorted by start time; output is too.
func ReferenceMerge(contacts []trace.Contact) []trace.Contact {
	last := make(map[[2]trace.NodeID]int) // pair -> index in out
	out := make([]trace.Contact, 0, len(contacts))
	for _, c := range contacts {
		key := [2]trace.NodeID{c.A, c.B}
		if c.A > c.B {
			key = [2]trace.NodeID{c.B, c.A}
		}
		if i, ok := last[key]; ok && c.Start <= out[i].End {
			if c.End > out[i].End {
				out[i].End = c.End
			}
			continue
		}
		out = append(out, c)
		last[key] = len(out) - 1
	}
	return out
}
