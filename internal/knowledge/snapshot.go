package knowledge

import (
	"dtncache/internal/graph"
	"dtncache/internal/trace"
)

// Snapshot is one immutable, versioned view of the network knowledge at
// a build time: each node's degree in the contact-rate graph, shortest
// opportunistic paths from every source, the path-weight matrix at the
// metric horizon T in compressed-sparse-row form, and the Eq. (3) NCL
// selection metric of every node.
//
// The weight matrix stores only non-zero off-diagonal entries: row i's
// columns live in cols[rowPtr[i]:rowPtr[i+1]] in ascending order, with
// the weights in the parallel vals range. The three slabs are allocated
// once per build, arena-style, and every row is a subslice into them —
// no per-row allocation, and a snapshot's whole matrix is freed as one
// unit when the Provider evicts it. On sparse contact graphs (city
// traces: isolated districts) this replaces the dense n×n matrix whose
// zeros dominated the build footprint.
//
// All methods are safe for concurrent use. Consumers must treat the
// snapshot as read-only; in a comparison the same value is shared by
// every scheme.
//
//dtn:immutable built once by Builder.Build, then shared read-only
type Snapshot struct {
	params  Params
	version int
	builtAt float64

	degree  []int32 // neighbours per node in the rate graph
	paths   []*graph.Paths
	rowPtr  []int32   // n+1 row offsets into cols/vals
	cols    []int32   // ascending column indices of non-zero weights
	vals    []float64 // weights at MetricT, parallel to cols
	metrics []float64 // C_i of Eq. (3) per node
}

// footprint returns the bytes the snapshot retains in slices: the
// capacities of its degrees, path trees, CSR slabs and metrics.
func (s *Snapshot) footprint() int {
	b := 4*(cap(s.degree)+cap(s.rowPtr)+cap(s.cols)) + 8*(cap(s.paths)+cap(s.vals)+cap(s.metrics))
	for _, p := range s.paths {
		b += p.Footprint()
	}
	return b
}

// Version is the snapshot's sequence number within its Provider,
// starting at 1 (0 is the empty pre-warm-up snapshot).
func (s *Snapshot) Version() int { return s.version }

// BuiltAt is the virtual time of the contact prefix the snapshot was
// built from.
func (s *Snapshot) BuiltAt() float64 { return s.builtAt }

// Degree returns the number of nodes n has a positive contact rate to.
func (s *Snapshot) Degree(n trace.NodeID) int { return int(s.degree[n]) }

// Paths returns the shortest opportunistic paths from src. The value is
// shared: read-only.
func (s *Snapshot) Paths(src trace.NodeID) *graph.Paths { return s.paths[src] }

// Metrics returns a copy of the NCL selection metric C_i (Eq. 3) for
// every node.
func (s *Snapshot) Metrics() []float64 {
	out := make([]float64, len(s.metrics))
	copy(out, s.metrics)
	return out
}

// MetricWeight returns the opportunistic path weight p_ab(T) at the
// metric horizon, from the precomputed sparse matrix. The diagonal is 1
// by definition and not stored.
//
//dtn:allocfree pure CSR lookup on the scheme hot path
func (s *Snapshot) MetricWeight(a, b trace.NodeID) float64 {
	n := s.params.Nodes
	if a < 0 || b < 0 || int(a) >= n || int(b) >= n {
		return 0
	}
	if a == b {
		return 1
	}
	return s.csrLookup(a, b)
}

// csrLookup finds column b in row a. A full row, one that stores every
// off-diagonal column, keeps b at offset b below the diagonal and b-1
// above it, so it needs no search; any other row is binary-searched.
// The search is hand-rolled: sort.Search takes a closure and would
// allocate on a path that must stay allocation-free.
//
//dtn:allocfree
func (s *Snapshot) csrLookup(a, b trace.NodeID) float64 {
	lo, hi := s.rowPtr[a], s.rowPtr[a+1]
	col := int32(b)
	if int(hi-lo) == s.params.Nodes-1 {
		if b > a {
			col--
		}
		return s.vals[lo+col]
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if s.cols[mid] < col {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.rowPtr[a+1] && s.cols[lo] == col {
		return s.vals[lo]
	}
	return 0
}

// WeightNNZ returns the number of stored (non-zero, off-diagonal)
// entries of the metric-horizon weight matrix — the footprint the CSR
// layout actually pays for, versus n² for the dense form.
func (s *Snapshot) WeightNNZ() int { return len(s.cols) }

// Weight returns the opportunistic path weight p_ab(t): 1 for a == b, a
// sparse-matrix lookup at the metric horizon, and a direct Paths
// evaluation for any other horizon. Paths.Weight reads the path's rates
// back from the tree onto the stack and recomputes its Eq. (2)
// coefficients there, so the evaluation is a pure read, safe for
// concurrent use.
//
//dtn:allocfree response-probability hot path (Sec. V-C); Paths.Weight gathers on the stack up to 8 hops
func (s *Snapshot) Weight(a, b trace.NodeID, t float64) float64 {
	if a == b {
		return 1
	}
	n := s.params.Nodes
	if a < 0 || b < 0 || int(a) >= n || int(b) >= n {
		return 0
	}
	if t == s.params.MetricT {
		return s.csrLookup(a, b)
	}
	return s.paths[a].Weight(b, t)
}
