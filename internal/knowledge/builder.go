package knowledge

import (
	"sort"
	"sync"

	"dtncache/internal/graph"
	"dtncache/internal/trace"
)

// Builder turns contact-trace prefixes into Snapshots. It holds no
// mutable state of its own — Build is a pure function of (contacts,
// build time, base snapshot) — so one Builder may serve concurrent
// Build calls for different times.
//
// The contact list must be sorted by start time; Build counts every
// contact in it, raw or merged as the caller supplies it. Build is the
// full recompute from a contact slice: the reference the Provider's
// incremental fold is tested against and the entry point of the
// all-paths benchmarks. A Provider builds through the same
// buildFromCounts with counts from its contact feed.
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

// Build produces the snapshot at time t. With base == nil every source
// is computed from scratch; with a base, sources whose connected
// component is unchanged within Epsilon reuse the base's paths, weight
// row and metric (see dirtySources). version is recorded on the
// snapshot; the Provider passes its own monotone counter.
func (b *Builder) Build(t float64, base *Snapshot, version int) *Snapshot {
	var counts *graph.RateEstimator
	if t > 0 {
		counts = b.counts(t)
	}
	return b.buildFromCounts(counts, t, base, version)
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
// Each weight is evaluated once. Pass 1 computes each dirty source's
// paths and its Eq. (3) metric, summing every off-diagonal weight,
// zeros included, in the same order as the dense build (bit-identical
// by construction). The same loop stages the row's non-zero (column,
// weight) pairs in a pooled length-n row and copies them out at exact
// size, so no append growth is left behind. Clean rows are subslices
// of the base's slabs. Once every row's length is known, a prefix sum
// sizes the CSR slabs and pass 2 copies the rows into them in order.
func (b *Builder) buildFromCounts(counts *graph.RateEstimator, t float64, base *Snapshot, version int) *Snapshot {
	n := b.params.Nodes
	s := &Snapshot{
		params:  b.params,
		version: version,
		builtAt: t,
		paths:   make([]*graph.Paths, n),
		metrics: make([]float64, n),
	}
	if t > 0 && counts != nil {
		s.g = counts.Snapshot(t)
	} else {
		s.g = graph.NewGraph(n)
	}

	var dirty []int
	if base != nil && base.params == b.params && len(base.paths) == n {
		dirty = b.dirtySources(base.g, s.g)
	} else {
		dirty = make([]int, n)
		for i := range dirty {
			dirty[i] = i
		}
	}
	isDirty := make([]bool, n)
	for _, i := range dirty {
		isDirty[i] = true
	}

	// rows[i] holds source i's non-zero weights until pass 2.
	rows := make([]weightRow, n)

	// Clean sources: carry the base's artifacts over unchanged.
	if len(dirty) < n {
		for i := 0; i < n; i++ {
			if isDirty[i] {
				continue
			}
			s.paths[i] = base.paths[i]
			s.metrics[i] = base.metrics[i]
			lo, hi := base.rowPtr[i], base.rowPtr[i+1]
			rows[i] = weightRow{cols: base.cols[lo:hi], vals: base.vals[lo:hi]}
			s.reused++
		}
	}

	// Pass 1 — dirty sources: recompute paths, the Eq. (3) metric, and
	// the row's non-zero weights, in parallel across index-owned slots.
	// PathsInto prepares every path it returns, so the published
	// snapshot is never mutated again. The neighbour lists are built
	// once here, before the fan-out, and only read by the workers.
	if len(dirty) > 0 {
		s.g.BuildAdjacency()
	}
	forEachSource(len(dirty), func(k int) {
		i := dirty[k]
		scratch := scratchPool.Get().(*graph.PathScratch)
		p := s.g.PathsInto(trace.NodeID(i), b.params.MaxHops, scratch)
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

// dirtySources decides which sources must be recomputed when moving
// from the rates of old to the rates of new. A single changed edge
// anywhere in a source's connected component can reroute its shortest
// opportunistic paths, so dirtiness propagates over components of the
// union graph (edges present in either old or new — covering nodes that
// joined or left a component). Per-source paths, weights and metrics
// depend only on the source's own component (the layered DP never
// relaxes an edge out of it, and weights to other components are 0), so
// a component whose rates are unchanged within Epsilon is reused whole.
// With Epsilon = 0 "unchanged" means bitwise equal, which makes reuse
// bit-identical to recomputation.
func (b *Builder) dirtySources(prevG, nextG *graph.Graph) []int {
	n := b.params.Nodes
	comp := newDSU(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			or := prevG.Rate(trace.NodeID(i), trace.NodeID(j))
			nr := nextG.Rate(trace.NodeID(i), trace.NodeID(j))
			if or > 0 || nr > 0 {
				comp.union(i, j)
			}
		}
	}
	changed := make([]bool, n) // indexed by component root
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			or := prevG.Rate(trace.NodeID(i), trace.NodeID(j))
			nr := nextG.Rate(trace.NodeID(i), trace.NodeID(j))
			if (or > 0 || nr > 0) && !b.closeEnough(or, nr) {
				changed[comp.find(i)] = true
			}
		}
	}
	var dirty []int
	for i := 0; i < n; i++ {
		if changed[comp.find(i)] {
			dirty = append(dirty, i)
		}
	}
	return dirty
}

// closeEnough reports whether an edge rate moving prev -> next counts
// as unchanged under the configured Epsilon.
func (b *Builder) closeEnough(prev, next float64) bool {
	if b.params.Epsilon == 0 {
		return prev == next
	}
	diff := next - prev
	if diff < 0 {
		diff = -diff
	}
	ref := prev
	if next > ref {
		ref = next
	}
	return diff <= b.params.Epsilon*ref
}

// dsu is a union-find over node indices with path halving.
type dsu []int

func newDSU(n int) dsu {
	d := make(dsu, n)
	for i := range d {
		d[i] = i
	}
	return d
}

func (d dsu) find(x int) int {
	for d[x] != x {
		d[x] = d[d[x]]
		x = d[x]
	}
	return x
}

func (d dsu) union(a, b int) {
	ra, rb := d.find(a), d.find(b)
	if ra != rb {
		d[ra] = rb
	}
}
