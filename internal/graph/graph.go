// Package graph implements the network contact graph of Sec. III-B and
// the NCL machinery of Sec. IV: online estimation of pairwise contact
// rates, shortest opportunistic paths (Definition 1), hypoexponential
// path weights (Eq. 2), and the probabilistic NCL selection metric C_i
// (Eq. 3) with top-K central-node selection.
//
//dtn:determinism
package graph

import (
	"slices"
	"sort"

	"dtncache/internal/mathx"
	"dtncache/internal/trace"
)

// DefaultMaxHops caps the length of opportunistic paths. The paper's
// "shortest opportunistic path" minimizes delivery delay; minimizing the
// expected delay with a small hop cap is the standard decomposable proxy
// (the hypoexponential weight itself is not additive along paths).
const DefaultMaxHops = 5

// RateEstimator accumulates pairwise contact counts and converts them to
// time-averaged Poisson contact rates, exactly as Sec. III-B prescribes
// ("calculated at real-time from the cumulative contacts ... in a
// time-average manner"). It is the one count-to-rate derivation: the
// knowledge builder counts a contact prefix into one and takes its
// Snapshot.
type RateEstimator struct {
	n      int
	counts []int // n*n, symmetric
	start  float64
}

// NewRateEstimator creates an estimator for n nodes, with the observation
// window starting at virtual time start.
func NewRateEstimator(n int, start float64) *RateEstimator {
	return &RateEstimator{n: n, counts: make([]int, n*n), start: start}
}

// Observe records one contact between a and b. A self-contact or a node
// out of range is ignored: validated traces have none, and skipping them
// keeps an unvalidated list from indexing out of range.
func (e *RateEstimator) Observe(a, b trace.NodeID) {
	if a == b || int(a) >= e.n || int(b) >= e.n || a < 0 || b < 0 {
		return
	}
	e.counts[int(a)*e.n+int(b)]++
	e.counts[int(b)*e.n+int(a)]++
}

// Count returns the cumulative contact count of the pair.
func (e *RateEstimator) Count(a, b trace.NodeID) int {
	return e.counts[int(a)*e.n+int(b)]
}

// Rate returns the estimated contact rate of the pair at time now, in
// contacts per second: cumulative contacts divided by elapsed time.
func (e *RateEstimator) Rate(a, b trace.NodeID, now float64) float64 {
	elapsed := now - e.start
	if elapsed <= 0 {
		return 0
	}
	return float64(e.Count(a, b)) / elapsed
}

// Reset forgets every observed contact.
func (e *RateEstimator) Reset() { clear(e.counts) }

// Snapshot builds the contact graph implied by the estimates at time now.
func (e *RateEstimator) Snapshot(now float64) *Graph {
	g := NewGraph(e.n)
	elapsed := now - e.start
	if elapsed <= 0 {
		return g
	}
	for i := 0; i < e.n; i++ {
		for j := i + 1; j < e.n; j++ {
			if c := e.counts[i*e.n+j]; c > 0 {
				g.SetRate(trace.NodeID(i), trace.NodeID(j), float64(c)/elapsed)
			}
		}
	}
	return g
}

// Graph is the undirected network contact graph with Poisson contact
// rates on its edges. A zero rate means the pair never meets.
type Graph struct {
	n     int
	rates []float64 // n*n symmetric
	// adj is the neighbour-list view of rates that path search walks,
	// built by BuildAdjacency and dropped by SetRate; nil when absent.
	adj *adjacency
}

// adjacency lists, for each node u, its neighbours in ascending order
// as (to[k], inv[k]) pairs with inv = 1/rate — the expected delay of
// the hop — for k in [off[u], off[u+1]).
type adjacency struct {
	off []int32
	to  []int32
	inv []float64
}

// BuildAdjacency precomputes the neighbour lists path search walks, so
// each Paths call skips the dense rate rows. Call it once the rates are
// final and before fanning out concurrent PathsInto calls: PathsInto
// only reads it, and on a graph without one builds a private copy per
// call. SetRate discards it.
func (g *Graph) BuildAdjacency() {
	g.adj = g.newAdjacency()
}

func (g *Graph) newAdjacency() *adjacency {
	n := g.n
	a := &adjacency{off: make([]int32, 1, n+1)}
	for u := 0; u < n; u++ {
		for v, r := range g.rates[u*n : u*n+n] {
			if r > 0 {
				a.to = append(a.to, int32(v))
				a.inv = append(a.inv, 1/r)
			}
		}
		a.off = append(a.off, int32(len(a.to)))
	}
	return a
}

// NewGraph creates an empty graph over n nodes.
func NewGraph(n int) *Graph {
	return &Graph{n: n, rates: make([]float64, n*n)}
}

// Rate returns the contact rate of the pair (0 if never in contact).
func (g *Graph) Rate(a, b trace.NodeID) float64 {
	if a == b || a < 0 || b < 0 || int(a) >= g.n || int(b) >= g.n {
		return 0
	}
	return g.rates[int(a)*g.n+int(b)]
}

// SetRate sets the symmetric contact rate of a pair; non-positive rates
// remove the edge.
func (g *Graph) SetRate(a, b trace.NodeID, rate float64) {
	if a == b || a < 0 || b < 0 || int(a) >= g.n || int(b) >= g.n {
		return
	}
	if rate < 0 {
		rate = 0
	}
	g.rates[int(a)*g.n+int(b)] = rate
	g.rates[int(b)*g.n+int(a)] = rate
	g.adj = nil
}

// Degrees returns, per node, the number of nodes it has a positive
// contact rate to, read off the neighbour lists.
func (g *Graph) Degrees() []int32 {
	adj := g.adj
	if adj == nil {
		adj = g.newAdjacency()
	}
	d := make([]int32, g.n)
	for u := range d {
		d[u] = adj.off[u+1] - adj.off[u]
	}
	return d
}

// Paths holds the shortest opportunistic paths from one source to every
// other node: hop-capped minimum-expected-delay paths whose weights
// (delivery probability within T) follow Eqs. (1)-(2).
//
// The hop rates of every path live concatenated in one exactly sized
// slab, node v's path in ratesSlab[off[v]:off[v+1]] (empty for the
// source and for unreachable nodes), and the Eq. (2) coefficients in a
// slab parallel to it. On sparse graphs (a city district reaches only
// its own community) the slabs stay proportional to what the source
// can actually reach. Every path is prepared when PathsInto returns,
// so a Paths is never mutated again and is safe for concurrent use
// (the contract knowledge snapshots rely on).
type Paths struct {
	src       trace.NodeID
	off       []int32    // n+1 offsets into ratesSlab and coefSlab
	ratesSlab []float64  // concatenated hop rates of every path, in hop order
	coefSlab  []float64  // Eq. (2) coefficients, parallel to ratesSlab; set for pathDistinct only
	kind      []pathKind // how Weight evaluates each node's path
}

// pathKind records what mathx.Prepare made of a path's rates.
type pathKind uint8

const (
	pathInvalid  pathKind = iota // rates Prepare rejects: weight 0
	pathGeneral                  // repeated or close rates: no closed form
	pathDistinct                 // well-separated rates: the closed form of Eq. (2)
)

// PathScratch holds the layered-DP working arrays of Paths so repeated
// path computations (the knowledge builder runs one per dirty source
// per snapshot) reuse them instead of reallocating. A scratch is not
// safe for concurrent use; pool one per worker. The zero value is
// ready.
type PathScratch struct {
	dist   [][]float64
	choice [][]trace.NodeID
	// changed[h&1][v] == h+1 marks v as improved at layer h; two
	// arrays, so marking layer h never erases layer h-1's frontier.
	changed [2][]int32
	// rates stages the recovered paths until their exact size is known.
	rates []float64
}

// layers resizes the scratch to hold maxHops+1 layers of width n and
// returns them. Contents are not cleared; PathsInto re-initializes
// every cell it reads.
func (ps *PathScratch) layers(maxHops, n int) ([][]float64, [][]trace.NodeID) {
	h := maxHops + 1
	if cap(ps.dist) < h {
		ps.dist = make([][]float64, h)
		ps.choice = make([][]trace.NodeID, h)
	}
	ps.dist = ps.dist[:h]
	ps.choice = ps.choice[:h]
	for i := 0; i < h; i++ {
		if cap(ps.dist[i]) < n {
			ps.dist[i] = make([]float64, n)
			ps.choice[i] = make([]trace.NodeID, n)
		}
		ps.dist[i] = ps.dist[i][:n]
		ps.choice[i] = ps.choice[i][:n]
	}
	for i := range ps.changed {
		if cap(ps.changed[i]) < n {
			ps.changed[i] = make([]int32, n)
		}
		ps.changed[i] = ps.changed[i][:n]
		clear(ps.changed[i])
	}
	return ps.dist, ps.choice
}

// Paths computes shortest opportunistic paths from src with at most
// maxHops hops (DefaultMaxHops if maxHops <= 0) using layered frontier
// relaxation over hop counts, which is exact for hop-capped minimum
// expected delay.
func (g *Graph) Paths(src trace.NodeID, maxHops int) *Paths {
	return g.PathsInto(src, maxHops, nil)
}

// PathsInto is Paths with caller-provided working memory: scratch (nil
// for one-shot use) supplies the DP layers, so a pooled scratch makes
// repeated calls allocate only the returned Paths. The result never
// aliases the scratch and scratch identity never affects the result.
func (g *Graph) PathsInto(src trace.NodeID, maxHops int, scratch *PathScratch) *Paths {
	if maxHops <= 0 {
		maxHops = DefaultMaxHops
	}
	if scratch == nil {
		scratch = &PathScratch{}
	}
	n := g.n
	const inf = 1e300
	adj := g.adj
	if adj == nil {
		adj = g.newAdjacency()
	}
	// Layered DP: dist[h][v] is the minimum expected delay from src to v
	// using at most h hops; choice[h][v] is the last hop's upstream node,
	// or -1 when the h-hop value is carried over from h-1 hops.
	//
	// Layer h relaxes only the frontier: the nodes whose value changed
	// at layer h-1. Any other node u has dist[h-1][u] == dist[h-2][u],
	// so every value it could propose was already proposed at layer h-1
	// and dist[h-1] holds it or better; with the strict < below it can
	// change neither dist nor choice. The frontier is relaxed in
	// ascending node order, so among equal proposals the lowest
	// upstream node wins, exactly as in a scan over all nodes.
	dist, choice := scratch.layers(maxHops, n)
	for h := range dist {
		for v := range dist[h] {
			dist[h][v] = inf
			choice[h][v] = -1
		}
	}
	dist[0][src] = 0
	scratch.changed[0][src] = 1
	for h := 1; h <= maxHops; h++ {
		copy(dist[h], dist[h-1])
		frontier, marks := scratch.changed[(h-1)&1], scratch.changed[h&1]
		improved := false
		for u := 0; u < n; u++ {
			if frontier[u] != int32(h) {
				continue
			}
			du := dist[h-1][u]
			for k := adj.off[u]; k < adj.off[u+1]; k++ {
				v := adj.to[k]
				if nd := du + adj.inv[k]; nd < dist[h][v] {
					dist[h][v] = nd
					choice[h][v] = trace.NodeID(u)
					marks[v] = int32(h + 1)
					improved = true
				}
			}
		}
		if !improved {
			// No layer beyond h can improve either; collapse.
			for hh := h + 1; hh <= maxHops; hh++ {
				copy(dist[hh], dist[h])
			}
			break
		}
	}
	// Recover every reachable path by walking the DP layers downward,
	// staging its rates in the scratch, then copy them out at exact
	// size: the Paths never aliases the scratch.
	final := dist[maxHops]
	off := make([]int32, n+1)
	scratch.rates = scratch.rates[:0]
	for v := 0; v < n; v++ {
		off[v] = int32(len(scratch.rates))
		if v == int(src) || final[v] >= inf {
			continue
		}
		cursor := trace.NodeID(v)
		for h := maxHops; h > 0 && cursor != src; h-- {
			u := choice[h][cursor]
			if u < 0 {
				continue // value carried from layer h-1
			}
			scratch.rates = append(scratch.rates, g.Rate(u, cursor))
			cursor = u
		}
		if cursor != src {
			scratch.rates = scratch.rates[:off[v]]
			continue
		}
		// Reverse into src->v hop order (the hypoexponential weight does
		// not depend on order, but diagnostics read better).
		slices.Reverse(scratch.rates[off[v]:])
	}
	hops := len(scratch.rates)
	off[n] = int32(hops)
	slab := make([]float64, 2*hops)
	p := &Paths{src: src, off: off, ratesSlab: slab[:hops:hops], coefSlab: slab[hops:], kind: make([]pathKind, n)}
	copy(p.ratesSlab, scratch.rates)
	for v := range p.kind {
		lo, hi := off[v], off[v+1]
		if lo == hi {
			continue
		}
		switch distinct, err := mathx.Prepare(p.ratesSlab[lo:hi], p.coefSlab[lo:hi]); {
		case err != nil:
			p.kind[v] = pathInvalid
		case distinct:
			p.kind[v] = pathDistinct
		default:
			p.kind[v] = pathGeneral
		}
	}
	return p
}

// hopRates returns the slab range of dst's path, empty if dst is
// unreachable or the source itself.
func (p *Paths) hopRates(dst trace.NodeID) []float64 {
	return p.ratesSlab[p.off[dst]:p.off[dst+1]]
}

// Source returns the path-tree root.
func (p *Paths) Source() trace.NodeID { return p.src }

// Reachable reports whether dst has an opportunistic path from the source.
func (p *Paths) Reachable(dst trace.NodeID) bool {
	if int(dst) >= len(p.kind) || dst < 0 {
		return false
	}
	return dst == p.src || p.off[dst] < p.off[dst+1]
}

// HopRates returns the contact rates along the path to dst (empty if
// unreachable or dst == src).
func (p *Paths) HopRates(dst trace.NodeID) []float64 {
	return slices.Clone(p.hopRates(dst))
}

// Hops returns the number of hops to dst (0 for the source, -1 if
// unreachable).
func (p *Paths) Hops(dst trace.NodeID) int {
	if !p.Reachable(dst) {
		return -1
	}
	return int(p.off[dst+1] - p.off[dst])
}

// Weight returns the opportunistic path weight p_{src,dst}(T): the
// probability that data is transmitted along the shortest opportunistic
// path within time T (Eq. 2). The weight to the source itself is 1, and 0
// for unreachable destinations.
func (p *Paths) Weight(dst trace.NodeID, t float64) float64 {
	if dst < 0 || int(dst) >= len(p.kind) {
		return 0
	}
	if dst == p.src {
		if t < 0 {
			return 0
		}
		return 1
	}
	lo, hi := p.off[dst], p.off[dst+1]
	if lo == hi || p.kind[dst] == pathInvalid {
		return 0
	}
	h := mathx.View(p.ratesSlab[lo:hi], p.coefSlab[lo:hi], p.kind[dst] == pathDistinct)
	return h.CDF(t)
}

// Footprint returns the bytes the path tree's slices hold: their
// capacities, which PathsInto sizes exactly.
func (p *Paths) Footprint() int {
	return 4*cap(p.off) + 8*(cap(p.ratesSlab)+cap(p.coefSlab)) + cap(p.kind)
}

// AllPaths computes Paths from every node. The graph is undirected, so
// result[i].Weight(j, T) == result[j].Weight(i, T) up to tie-breaking.
func (g *Graph) AllPaths(maxHops int) []*Paths {
	g.BuildAdjacency()
	out := make([]*Paths, g.n)
	for i := 0; i < g.n; i++ {
		out[i] = g.Paths(trace.NodeID(i), maxHops)
	}
	return out
}

// Metric computes the NCL selection metric C_i of Eq. (3): the average
// probability that data can be transmitted from a random node to node i
// within time T.
func (g *Graph) Metric(i trace.NodeID, t float64, maxHops int) float64 {
	if g.n <= 1 {
		return 0
	}
	p := g.Paths(i, maxHops)
	var sum float64
	for j := 0; j < g.n; j++ {
		if trace.NodeID(j) == i {
			continue
		}
		sum += p.Weight(trace.NodeID(j), t)
	}
	return sum / float64(g.n-1)
}

// Metrics computes C_i for every node.
func (g *Graph) Metrics(t float64, maxHops int) []float64 {
	g.BuildAdjacency()
	out := make([]float64, g.n)
	for i := 0; i < g.n; i++ {
		out[i] = g.Metric(trace.NodeID(i), t, maxHops)
	}
	return out
}

// SelectNCLs returns the K nodes with the highest metric values (ties
// broken by ascending node ID), the paper's central-node selection rule.
func SelectNCLs(metrics []float64, k int) []trace.NodeID {
	if k <= 0 {
		return nil
	}
	idx := make([]trace.NodeID, len(metrics))
	for i := range idx {
		idx[i] = trace.NodeID(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		ma, mb := metrics[idx[a]], metrics[idx[b]]
		if ma != mb {
			return ma > mb
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]trace.NodeID, k)
	copy(out, idx[:k])
	return out
}
