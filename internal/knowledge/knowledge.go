// Package knowledge owns the contact-rate → opportunistic-path →
// NCL-metric pipeline of Secs. III-B and IV-B as versioned, immutable
// Snapshot values.
//
// The seed architecture recomputed this pipeline from scratch inside
// every scheme.Env at every knowledge refresh — once per scheme in a
// comparison, once per sweep cell — and re-evaluated the
// hypoexponential path weight (Eq. 2) on every MetricWeight call. This
// package centralizes the artifact:
//
//   - A Builder turns a prefix of the contact trace (all contacts with
//     Start <= t) into a Snapshot: each node's degree in the rate graph,
//     per-source shortest opportunistic paths, the sparse weight matrix
//     at the metric horizon T, and the Eq. (3) NCL metric per node. The
//     arithmetic reproduces graph.RateEstimator.Snapshot +
//     Graph.AllPaths + Graph.Metrics bit-for-bit.
//   - Every build is a full build of its refresh time. A rate is a
//     contact count divided by the elapsed time, so between any two
//     refreshes every edge changes, and with it every path. Only a node
//     with no contact yet keeps its (empty) paths, and those cost
//     nothing to rebuild.
//   - Sources fan out across GOMAXPROCS workers writing index-owned
//     slots, so parallelism cannot reorder results.
//   - A Provider caches snapshots by build time behind a mutex so
//     concurrently running schemes of one comparison share each refresh
//     instead of rebuilding it per scheme.
//
// Snapshots are immutable after Build returns: graph.PathsInto prepares
// every path it returns, so all reads — Weight, MetricWeight, Metrics —
// are safe for concurrent use, and consumers must never mutate a shared
// snapshot (see DESIGN.md "Knowledge layer").
//
//dtn:determinism
package knowledge

import (
	"dtncache/internal/graph"
)

// Params identifies the knowledge pipeline configuration. Two consumers
// may share a Provider exactly when their Params are equal.
type Params struct {
	// Nodes is the trace's node count.
	Nodes int
	// MetricT is the path-weight horizon T of Sec. IV-B; the n×n weight
	// matrix is precomputed at this horizon.
	MetricT float64
	// MaxHops caps opportunistic path length (graph.DefaultMaxHops if
	// <= 0, mirroring graph.Paths).
	MaxHops int
}

// Normalized fills the MaxHops default so equivalent pipeline
// configurations compare equal with ==.
func (p Params) Normalized() Params {
	if p.MaxHops <= 0 {
		p.MaxHops = graph.DefaultMaxHops
	}
	return p
}
