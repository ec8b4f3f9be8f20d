package knowledge

import (
	"sort"
	"sync"

	"dtncache/internal/graph"
	"dtncache/internal/trace"
)

// Builder turns contact-trace prefixes into Snapshots. It holds no
// mutable state of its own — Build is a pure function of (contacts,
// build time) — so one Builder may serve concurrent Build calls for
// different times.
//
// The contact list must be sorted by start time; Build counts every
// contact in it, raw or merged as the caller supplies it. Build counts
// from a contact slice: the reference the Provider's incremental
// contact fold is tested against and the entry point of the all-paths
// benchmarks. A Provider builds through the same buildFromCounts with
// counts from its contact feed.
//
//dtn:shared one Builder serves every scheme and sweep cell
type Builder struct {
	params   Params
	contacts []trace.Contact
}

// NewBuilder creates a builder over the given contact list.
func NewBuilder(p Params, contacts []trace.Contact) *Builder {
	return &Builder{params: p.Normalized(), contacts: contacts}
}

// Params returns the normalized pipeline configuration.
func (b *Builder) Params() Params { return b.params }

// counts observes every contact with Start <= t — the prefix a run has
// seen by the refresh event at time t (contact-start events at equal
// virtual time carry lower sequence numbers than maintenance ticks, so
// they fire first).
func (b *Builder) counts(t float64) *graph.RateEstimator {
	est := graph.NewRateEstimator(b.params.Nodes, 0)
	// Contacts are sorted by start, so the observed prefix is contiguous.
	end := sort.Search(len(b.contacts), func(i int) bool {
		return b.contacts[i].Start > t
	})
	for _, c := range b.contacts[:end] {
		est.Observe(c.A, c.B)
	}
	return est
}

// Build produces the snapshot at time t. version is recorded on the
// snapshot; the Provider passes its own monotone counter.
func (b *Builder) Build(t float64, version int) *Snapshot {
	var counts *graph.RateEstimator
	if t > 0 {
		counts = b.counts(t)
	}
	return b.buildFromCounts(counts, t, version)
}

// scratchPool recycles the layered-DP working arrays across path
// computations. Scratch identity never affects results (PathsInto's
// contract), so pooling is invisible to determinism.
var scratchPool = sync.Pool{New: func() any { return new(graph.PathScratch) }}

// weightRow is pass 1's staging area for one source's non-zero weights.
type weightRow struct {
	cols []int32
	vals []float64
}

// rowPool recycles the length-n staging rows across sources and builds.
var rowPool = sync.Pool{New: func() any { return new(weightRow) }}

// buildFromCounts is Build with the contact counting already done —
// the Provider supplies counts from its contact feed instead of a
// contact slice. counts, whose observation window starts at 0, may be
// nil when t <= 0.
//
// Each weight is evaluated once. Pass 1 computes each source's paths
// and its Eq. (3) metric, summing every off-diagonal weight, zeros
// included, in the same order as the dense build (bit-identical by
// construction). The same loop stages the row's non-zero (column,
// weight) pairs in a pooled length-n row and copies them out at exact
// size, so no append growth is left behind. Once every row's length is
// known, a prefix sum sizes the CSR slabs and pass 2 copies the rows
// into them in order. The rate graph is dropped with the build: the
// snapshot keeps only each node's degree of it.
func (b *Builder) buildFromCounts(counts *graph.RateEstimator, t float64, version int) *Snapshot {
	n := b.params.Nodes
	s := &Snapshot{
		params:  b.params,
		version: version,
		builtAt: t,
		paths:   make([]*graph.Paths, n),
		metrics: make([]float64, n),
	}
	var g *graph.Graph
	if t > 0 && counts != nil {
		g = counts.Snapshot(t)
	} else {
		g = graph.NewGraph(n)
	}
	// The neighbour lists are built once here, before the fan-out, and
	// only read by the workers.
	g.BuildAdjacency()
	s.degree = g.Degrees()

	// rows[i] holds source i's non-zero weights until pass 2.
	rows := make([]weightRow, n)

	// Pass 1: paths, the Eq. (3) metric and the row's non-zero weights,
	// in parallel across index-owned slots. PathsInto prepares every
	// path it returns, so the published snapshot is never mutated again.
	forEachSource(n, func(i int) {
		scratch := scratchPool.Get().(*graph.PathScratch)
		p := g.PathsInto(trace.NodeID(i), b.params.MaxHops, scratch)
		scratchPool.Put(scratch)
		s.paths[i] = p
		stage := rowPool.Get().(*weightRow)
		if cap(stage.cols) < n {
			stage.cols, stage.vals = make([]int32, n), make([]float64, n)
		}
		var sum float64
		nnz := 0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			w := p.Weight(trace.NodeID(j), b.params.MetricT)
			sum += w
			if w != 0 {
				stage.cols[nnz] = int32(j)
				stage.vals[nnz] = w
				nnz++
			}
		}
		if nnz > 0 {
			rows[i] = weightRow{
				cols: append(make([]int32, 0, nnz), stage.cols[:nnz]...),
				vals: append(make([]float64, 0, nnz), stage.vals[:nnz]...),
			}
		}
		rowPool.Put(stage)
		if n > 1 {
			s.metrics[i] = sum / float64(n-1)
		}
	})

	// Pass 2 — size the CSR slabs and copy every row into its range.
	s.rowPtr = make([]int32, n+1)
	for i, row := range rows {
		s.rowPtr[i+1] = s.rowPtr[i] + int32(len(row.cols))
	}
	nnz := s.rowPtr[n]
	s.cols = make([]int32, 0, nnz)
	s.vals = make([]float64, 0, nnz)
	for _, row := range rows {
		s.cols = append(s.cols, row.cols...)
		s.vals = append(s.vals, row.vals...)
	}
	return s
}
