package core

import (
	"cmp"
	"math"
	"slices"

	"dtncache/internal/buffer"
	"dtncache/internal/knapsack"
	"dtncache/internal/sim"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// poolItem is one pooled data item during replacement, with the nodes
// currently holding it.
type poolItem struct {
	item     workload.DataItem
	utility  float64
	atA      bool
	atB      bool
	homeA    int // Home tag at A (valid if atA)
	homeB    int
	transitA bool // InTransit flag at A (valid if atA)
	transitB bool
}

// quantBits is the knapsack size quantum: Eq. (7) counts item sizes and
// buffer capacities in 5 Mb units.
const quantBits = 5e6

// replace runs the paper's cache replacement (Sec. V-D) on a contact:
// pool the settled (non-transit) cached entries of both nodes, let the
// node nearer the NCLs pick the best subset by solving the knapsack of
// Eq. (7) — per Algorithm 1 with Bernoulli acceptance when probabilistic
// selection is on — then let the other node pick from the remainder.
// Items neither node selects are dropped; selections that require a copy
// to change nodes are moved over the contact (and survive at the old
// node if the contact ends first).
func (s *Intentional) replace(sess *sim.Session) {
	e := s.env
	now := e.Sim.Now()
	a, b := sess.A, sess.B
	// A is the node with the higher opportunistic weight toward the NCLs
	// (p_A > p_B in Fig. 8): it gets first pick, so popular data ends up
	// nearer the central nodes.
	if s.nclWeight(a) < s.nclWeight(b) {
		a, b = b, a
	}
	pool, pinnedA, pinnedB := s.buildPool(a, b, now)
	if len(pool) == 0 {
		return
	}

	sc := &s.repl
	items := sc.items[:0]
	for i, p := range pool {
		items = append(items, knapsack.Item{
			ID:    i,
			Size:  int(math.Ceil(p.item.SizeBits / quantBits)),
			Value: p.utility,
		})
	}
	sc.items = items
	inA, inB := cleared(&sc.inA, len(pool)), cleared(&sc.inB, len(pool))
	capA, capB := s.replCapacity(a, pinnedA), s.replCapacity(b, pinnedB)
	for _, i := range s.selectFor(items, capA) {
		inA[i] = true
		capA -= items[i].Size
	}
	rest := sc.rest[:0]
	for i := range items {
		if !inA[i] {
			rest = append(rest, items[i])
		}
	}
	sc.rest = rest
	for _, ri := range s.selectFor(rest, capB) {
		inB[rest[ri].ID] = true
		capB -= rest[ri].Size
	}
	// Bernoulli rejection (Algorithm 1) deprioritizes an item, it does
	// not discard it: data is dropped only when neither buffer has room
	// (the d6 case of Fig. 8). Greedily place leftovers, most useful
	// first, preferring the lower-priority node B.
	leftovers := sc.leftovers[:0]
	for i := range items {
		if !inA[i] && !inB[i] {
			leftovers = append(leftovers, i)
		}
	}
	sc.leftovers = leftovers
	// Descending value, ties by index: a total order, so any sort gives
	// the same sequence.
	slices.SortFunc(leftovers, func(x, y int) int {
		if vx, vy := items[x].Value, items[y].Value; vx != vy {
			if vx > vy {
				return -1
			}
			return 1
		}
		return cmp.Compare(x, y)
	})
	for _, i := range leftovers {
		// Prefer keeping the copy where it already is (no transfer).
		preferA := pool[i].atA && !pool[i].atB
		switch {
		case preferA && items[i].Size <= capA:
			inA[i] = true
			capA -= items[i].Size
		case items[i].Size <= capB:
			inB[i] = true
			capB -= items[i].Size
		case items[i].Size <= capA:
			inA[i] = true
			capA -= items[i].Size
		}
	}

	s.applyPlan(sess, a, b, pool, inA, inB)
}

// replScratch is replace's working memory, reused across contacts.
// replace never re-enters itself (transfers complete through the event
// heap), so one scratch per scheme suffices.
type replScratch struct {
	pool      []poolItem
	items     []knapsack.Item
	rest      []knapsack.Item
	leftovers []int
	sel       []int // selectFor's Algorithm 1 selection
	inA, inB  []bool
}

// cleared resizes *buf to n zero values, reusing its array.
func cleared[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	b := (*buf)[:n]
	clear(b)
	*buf = b
	return b
}

// nclWeight is node n's closeness to the NCLs: its best opportunistic
// weight toward any central node, read from the knowledge snapshot's
// precomputed weight matrix.
func (s *Intentional) nclWeight(n trace.NodeID) float64 {
	best := 0.0
	snap := s.env.Knowledge()
	for _, center := range s.env.NCLs() {
		if w := snap.MetricWeight(n, center); w > best {
			best = w
		}
	}
	return best
}

// buildPool collects the replacement candidates of both nodes, deduping
// items cached at both under the same NCL. Utilities follow Eq. (6)
// using the better of the two nodes' request histories, floored so
// unrequested data is not dropped outright (footnote 3). It also returns
// the buffer space at each node pinned by copies excluded from the pool
// (same item homed at different NCLs on both sides).
//
// The pool is a merge of the two buffers, both sorted by ascending data
// ID, so it comes out in ascending-ID order with no map or sort, and
// pinnedA/pinnedB are summed in that fixed order (float addition in
// map-iteration order would make them run-dependent in the last ulps).
// The returned slice is scratch, valid until the next call.
//
//dtn:allocfree steady state reuses the pool's backing array (TestBuildPoolZeroAlloc)
func (s *Intentional) buildPool(a, b trace.NodeID, now float64) (pool []poolItem, pinnedA, pinnedB float64) {
	e := s.env
	ea, eb := e.Buffers[a].Entries(), e.Buffers[b].Entries()
	// Grow once to the bound len(ea)+len(eb), so the merge below only
	// reslices within capacity.
	pool = slices.Grow(s.repl.pool[:0], len(ea)+len(eb))
	for i, j := 0, 0; ; {
		for i < len(ea) && !s.poolable(a, ea[i], now) {
			i++
		}
		for j < len(eb) && !s.poolable(b, eb[j], now) {
			j++
		}
		var p poolItem
		switch {
		case i < len(ea) && (j == len(eb) || ea[i].Data.ID <= eb[j].Data.ID):
			en := ea[i]
			i++
			p = poolItem{item: en.Data, atA: true, homeA: en.Home, transitA: en.InTransit, homeB: -1}
			if j < len(eb) && eb[j].Data.ID == en.Data.ID {
				p.atB, p.homeB, p.transitB = true, eb[j].Home, eb[j].InTransit
				j++
			}
		case j < len(eb):
			en := eb[j]
			j++
			p = poolItem{item: en.Data, atB: true, homeA: -1, homeB: en.Home, transitB: en.InTransit}
		default:
			s.repl.pool = pool
			return pool, pinnedA, pinnedB
		}
		if p.atA && p.atB && p.homeA != p.homeB {
			// Copies of the same item belonging to different NCLs are
			// intentional redundancy ("one copy of data is cached at
			// each NCL", Sec. V): leave both in place, but account for
			// the space they occupy.
			pinnedA += p.item.SizeBits
			pinnedB += p.item.SizeBits
			continue
		}
		sa := s.base.Stats(a, p.item.ID)
		sb := s.base.Stats(b, p.item.ID)
		u := math.Max(e.Popularity(&sa, p.item.Expires), e.Popularity(&sb, p.item.Expires))
		p.utility = math.Max(u, s.utilityFloor)
		pool = pool[:len(pool)+1]
		pool[len(pool)-1] = p
	}
}

// poolable reports whether node n's entry joins the replacement pool:
// it is live, and no push or migration transfer of it is outstanding
// (such copies keep single-copy custody and sit this exchange out).
//
//dtn:allocfree
func (s *Intentional) poolable(n trace.NodeID, en *buffer.Entry, now float64) bool {
	return !en.Data.Expired(now) && !s.inflightPush[pushTransfer{holder: n, data: en.Data.ID, ncl: en.Home}]
}

// replCapacity is the knapsack capacity of node n in quanta: total
// buffer capacity minus space pinned by copies with outstanding
// transfers and by extraPinned (pool-excluded duplicates).
func (s *Intentional) replCapacity(n trace.NodeID, extraPinned float64) int {
	buf := s.env.Buffers[n]
	pinned := extraPinned
	for _, en := range buf.Entries() {
		if s.inflightPush[pushTransfer{holder: n, data: en.Data.ID, ncl: en.Home}] {
			pinned += en.Data.SizeBits
		}
	}
	c := int(math.Floor((buf.Capacity() - pinned) / quantBits))
	if c < 0 {
		c = 0
	}
	return c
}

// selectFor picks items for one node: Algorithm 1 (Bernoulli acceptance
// with probability = utility) when probabilistic selection is enabled,
// the plain Eq. (7) knapsack otherwise. Returns indices into items;
// Algorithm 1's selection lives in the replacement scratch, valid until
// the next call.
func (s *Intentional) selectFor(items []knapsack.Item, capacity int) []int {
	if len(items) == 0 || capacity <= 0 {
		return nil
	}
	if !s.env.Cfg.DisableProbabilisticSelection {
		sel, err := knapsack.ProbabilisticSelect(s.repl.sel[:0], items, capacity, func(it knapsack.Item) bool {
			p := it.Value
			if p > 1 {
				p = 1
			}
			return s.env.Rng.Bernoulli(p)
		})
		if err != nil {
			return nil
		}
		s.repl.sel = sel
		return sel
	}
	sel, _, err := knapsack.Solve(items, capacity)
	if err != nil {
		return nil
	}
	return sel
}

// applyPlan reconciles both buffers with the selection: duplicates
// collapse to the selected node, unselected items are dropped, and items
// selected at the node not holding them migrate over the contact.
func (s *Intentional) applyPlan(sess *sim.Session, a, b trace.NodeID,
	pool []poolItem, inA, inB []bool) {
	e := s.env
	now := e.Sim.Now()
	for i, p := range pool {
		switch {
		case inA[i]:
			if p.atA && p.atB {
				e.Buffers[b].Remove(p.item.ID) // collapse duplicate
				e.Obs.CacheEvict(now, int32(b), int64(p.item.ID), p.utility)
			}
			if !p.atA && p.atB {
				s.move(sess, b, a, p.item, p.homeB, p.transitB)
			}
		case inB[i]:
			if p.atA && p.atB {
				e.Buffers[a].Remove(p.item.ID)
				e.Obs.CacheEvict(now, int32(a), int64(p.item.ID), p.utility)
			}
			if !p.atB && p.atA {
				s.move(sess, a, b, p.item, p.homeA, p.transitA)
			}
		default:
			// Selected by neither: dropped from the network at these two
			// nodes (Sec. V-D.2, the d6 case of Fig. 8).
			if p.atA {
				e.Buffers[a].Remove(p.item.ID)
				s.cReplaceDrops.Inc()
				e.Obs.CacheEvict(now, int32(a), int64(p.item.ID), p.utility)
			}
			if p.atB {
				e.Buffers[b].Remove(p.item.ID)
				s.cReplaceDrops.Inc()
				e.Obs.CacheEvict(now, int32(b), int64(p.item.ID), p.utility)
			}
		}
	}
}

// move migrates one cached copy from src to dst over the live contact.
// The copy stays at src until the transfer completes, so an interrupted
// contact loses nothing; on arrival the copy keeps its NCL home tag,
// transit state and request history. The transfer rides a pooled
// moveXfer record.
func (s *Intentional) move(sess *sim.Session, src, dst trace.NodeID,
	item workload.DataItem, home int, inTransit bool) {
	tk := pushTransfer{holder: src, data: item.ID, ncl: home}
	if s.inflightPush[tk] {
		return
	}
	s.inflightPush[tk] = true
	x := s.getMove()
	x.tk, x.dst, x.item, x.inTransit = tk, dst, item, inTransit
	if !sess.Enqueue(sim.Transfer{
		From: src, To: dst, Bits: item.SizeBits, Label: "replace",
		OnDelivered: x.onDelivered, OnDropped: x.onDropped,
	}) {
		x.dropped(0)
	}
}

// moveXfer is one in-flight replacement migration, pooled on
// Intentional (moveFree) like bcastXfer: its callbacks are method
// values bound once per record, and it returns to the pool from
// whichever one fires.
type moveXfer struct {
	s         *Intentional
	tk        pushTransfer // holder is the source, ncl the copy's home
	dst       trace.NodeID
	item      workload.DataItem
	inTransit bool

	onDelivered, onDropped func(at float64)
}

// getMove pops a record from the pool or allocates one.
func (s *Intentional) getMove() *moveXfer {
	if n := len(s.moveFree); n > 0 {
		x := s.moveFree[n-1]
		s.moveFree = s.moveFree[:n-1]
		return x
	}
	x := &moveXfer{s: s}
	x.onDelivered, x.onDropped = x.delivered, x.dropped
	return x
}

// dropped is the record's OnDropped callback: the copy stays at the
// source, free to move again.
func (x *moveXfer) dropped(float64) {
	delete(x.s.inflightPush, x.tk)
	x.s.moveFree = append(x.s.moveFree, x)
}

// delivered is the record's OnDelivered callback.
func (x *moveXfer) delivered(at float64) {
	s, src, home, dst, item, inTransit := x.s, x.tk.holder, x.tk.ncl, x.dst, x.item, x.inTransit
	x.dropped(at)
	e := s.env
	e.M.DataTransferred(item.SizeBits)
	if item.Expired(at) {
		e.Buffers[src].Remove(item.ID)
		return
	}
	en, err := e.Buffers[dst].Put(item, at)
	if err != nil {
		// Space changed under us (e.g. pushes landed first); keep the
		// copy where it was.
		return
	}
	// A migration toward the NCLs is also push progress: the copy keeps
	// advancing unless it has reached its center.
	en.Home = home
	en.InTransit = inTransit && dst != s.centerOf(home)
	stats := s.base.Stats(dst, item.ID)
	var merged buffer.RequestStats
	merged.Merge(stats)
	en.Requests = merged
	e.Buffers[src].Remove(item.ID)
	e.M.ReplacementMove(1)
	if e.Obs != nil {
		u := e.Popularity(&en.Requests, item.Expires)
		e.Obs.CacheEvict(at, int32(src), int64(item.ID), u)
		e.Obs.CacheInsert(at, int32(dst), int64(item.ID), u)
	}
}

// centerOf returns the central node of NCL k, or -1 when k is not a
// valid NCL index.
func (s *Intentional) centerOf(k int) trace.NodeID {
	ncls := s.env.NCLs()
	if k < 0 || k >= len(ncls) {
		return -1
	}
	return ncls[k]
}
