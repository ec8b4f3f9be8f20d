package scheme

import (
	"math"
	"math/bits"
	"slices"

	"dtncache/internal/buffer"
	"dtncache/internal/provenance"
	"dtncache/internal/sim"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// QueryCarry is a query copy carried by a node toward a target (a
// central node for the intentional scheme, the data source for the
// baselines). Gradient forwarding keeps a single copy per target: the
// relay deletes its copy after handing it to a better-positioned node.
type QueryCarry struct {
	Q workload.Query
	// Target is the destination node of this copy.
	Target trace.NodeID
	// NCL is the index (into Env.NCLs) of the targeted central node, or
	// -1 for baselines targeting the source.
	NCL int
	// Broadcast marks the copy as being flooded within an NCL's caching
	// subgraph after reaching the central node (Sec. V-B).
	Broadcast bool
	// Copies is the remaining logical copy budget for spray-and-wait
	// dissemination (0 or 1 means single-copy gradient forwarding).
	Copies int
}

// key distinguishes copies of the same query aimed at different targets.
func (qc *QueryCarry) key() queryKey {
	return queryKey{ID: qc.Q.ID, Target: qc.Target}
}

type queryKey struct {
	ID     workload.QueryID
	Target trace.NodeID
}

// less orders keys by (ID, Target), the order of every query store.
func (k queryKey) less(o queryKey) bool {
	return k.ID < o.ID || (k.ID == o.ID && k.Target < o.Target)
}

// ReplyCarry is a data copy traveling back to a requester.
type ReplyCarry struct {
	Q    workload.Query
	Item workload.DataItem
}

// Base bundles the per-node protocol state and forwarding machinery
// every scheme shares: carried query copies, carried replies, per-node
// request histories, and single-shot response bookkeeping.
//
// All per-node stores are slice-backed (QueryID/DataID are dense small
// integers, see workload): carried copies live in slices sorted by
// (query ID, target) so per-contact iteration needs no map walk, no
// re-sort, and no allocation, with their keys and mode tags inline in
// parallel slices, so a custody lookup searches one flat array and a
// per-contact scan skips the copies that cannot move without touching
// them; request histories are dense arrays indexed by DataID; responded
// flags are bitsets indexed by QueryID.
// This is the difference between the map-backed seed (a sort per
// ForwardQueries call) and the zero-allocation replay loop — see
// DESIGN.md "Replay performance".
type Base struct {
	E *Env
	// queries[n] holds the query copies node n is carrying, sorted by
	// (Q.ID, Target); qkeys[n][i] is queries[n][i].key() and qtags[n][i]
	// its modeTag, both kept in step by every store mutation, as is
	// grads[n], the number of tagGradient entries in qtags[n].
	queries [][]*QueryCarry
	qkeys   [][]queryKey
	qtags   [][]int32
	grads   []int
	// drops[n] counts removals from node n's query store: a Custody
	// answer "n carries this key" holds while drops[n] is unchanged.
	drops []uint64
	// replies[n] holds the reply copies node n is carrying, sorted by
	// Q.ID.
	replies [][]*ReplyCarry
	// history[n] is node n's locally observed request history, indexed
	// by DataID (grown on demand).
	history [][]buffer.RequestStats
	// responded[n] marks queries node n has already decided about, one
	// bit per QueryID.
	responded [][]uint64
	// inflightQ/inflightR guard single-copy custody: a copy with an
	// outstanding transfer on one contact must not be offered on a
	// concurrent contact.
	inflightQ map[inflight]bool
	inflightR map[inflight]bool
	// xferFree pools gradient and spray transfer records (queryXfer),
	// replyFree reply transfer records (replyXfer).
	xferFree  []*queryXfer
	replyFree []*replyXfer
}

// inflight identifies an outstanding transfer of a carried message.
type inflight struct {
	node   trace.NodeID
	query  workload.QueryID
	target trace.NodeID
}

// NewBase allocates the per-node state for the environment.
func NewBase(e *Env) *Base {
	return &Base{
		E:         e,
		queries:   make([][]*QueryCarry, e.N),
		qkeys:     make([][]queryKey, e.N),
		qtags:     make([][]int32, e.N),
		grads:     make([]int, e.N),
		drops:     make([]uint64, e.N),
		replies:   make([][]*ReplyCarry, e.N),
		history:   make([][]buffer.RequestStats, e.N),
		responded: make([][]uint64, e.N),
		inflightQ: make(map[inflight]bool),
		inflightR: make(map[inflight]bool),
	}
}

// Observe records a request occurrence for item id in node n's history.
func (b *Base) Observe(n trace.NodeID, id workload.DataID, at float64) {
	h := b.history[n]
	if int(id) >= len(h) {
		h = append(h, make([]buffer.RequestStats, int(id)+1-len(h))...)
		b.history[n] = h
	}
	h[id].Observe(at)
}

// Stats returns node n's request history for item id (zero stats if
// none).
func (b *Base) Stats(n trace.NodeID, id workload.DataID) buffer.RequestStats {
	if h := b.history[n]; int(id) < len(h) {
		return h[id]
	}
	return buffer.RequestStats{}
}

// searchQueryKey returns the insertion index of key k in ks.
//
//dtn:allocfree hand-rolled binary search, no sort.Search closure
func searchQueryKey(ks []queryKey, k queryKey) int {
	lo, hi := 0, len(ks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ks[mid].less(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchQueryID returns the index of the first key with ID >= id.
//
//dtn:allocfree
func searchQueryID(ks []queryKey, id workload.QueryID) int {
	lo, hi := 0, len(ks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ks[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchReply returns the insertion index of query id in rs.
//
//dtn:allocfree
func searchReply(rs []*ReplyCarry, id workload.QueryID) int {
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rs[mid].Q.ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Mode tags of the query store: a copy in gradient mode is tagGradient;
// a broadcast copy is tagged with its NCL index, or tagOutside when the
// index is negative or does not fit an int32.
const (
	tagGradient int32 = -1
	tagOutside  int32 = -2
)

// modeTag is the store tag of qc's current mode.
func modeTag(qc *QueryCarry) int32 {
	switch {
	case !qc.Broadcast:
		return tagGradient
	case qc.NCL < 0 || qc.NCL > math.MaxInt32:
		return tagOutside
	}
	return int32(qc.NCL)
}

// CarryQuery adds a query copy to node n (ignored if already carried or
// expired).
func (b *Base) CarryQuery(n trace.NodeID, qc *QueryCarry) {
	if qc.Q.Deadline <= b.E.Sim.Now() {
		return
	}
	ks, k := b.qkeys[n], qc.key()
	i := searchQueryKey(ks, k)
	if i < len(ks) && ks[i] == k {
		return
	}
	t := modeTag(qc)
	if t == tagGradient {
		b.grads[n]++
	}
	b.qkeys[n] = slices.Insert(ks, i, k)
	b.qtags[n] = slices.Insert(b.qtags[n], i, t)
	b.queries[n] = slices.Insert(b.queries[n], i, qc)
}

// DropQuery removes a query copy from node n.
func (b *Base) DropQuery(n trace.NodeID, qc *QueryCarry) {
	ks, k := b.qkeys[n], qc.key()
	i := searchQueryKey(ks, k)
	if i >= len(ks) || ks[i] != k {
		return
	}
	if b.qtags[n][i] == tagGradient {
		b.grads[n]--
	}
	// slices.Delete nils the vacated pointer slot.
	b.qkeys[n] = slices.Delete(ks, i, i+1)
	b.qtags[n] = slices.Delete(b.qtags[n], i, i+1)
	b.queries[n] = slices.Delete(b.queries[n], i, i+1)
	b.drops[n]++
}

// SetBroadcast switches qc to broadcast mode (Sec. V-B), retagging it
// in node n's store when n carries this very copy (a copy lives in at
// most one store). Every switch goes through here: a copy whose
// Broadcast flag changed behind the store's back would keep iterating
// as a gradient copy.
func (b *Base) SetBroadcast(n trace.NodeID, qc *QueryCarry) {
	qc.Broadcast = true
	ks, k := b.qkeys[n], qc.key()
	if i := searchQueryKey(ks, k); i < len(ks) && ks[i] == k && b.queries[n][i] == qc {
		if b.qtags[n][i] == tagGradient {
			b.grads[n]--
		}
		b.qtags[n][i] = modeTag(qc)
	}
}

// CarriesQueryKey reports whether node n carries this exact copy
// (same query, same target).
//
//dtn:allocfree
func (b *Base) CarriesQueryKey(n trace.NodeID, qc *QueryCarry) bool {
	ks, k := b.qkeys[n], qc.key()
	i := searchQueryKey(ks, k)
	return i < len(ks) && ks[i] == k
}

// Custody records whether a node carried a copy's key, and the node's
// removal count then.
type Custody struct {
	carried bool
	drops   uint64
}

// QueryCursor answers custody for one node, in amortized O(1), for
// copies presented in ascending (query ID, target) order. It is valid
// only while the node's store is unchanged.
type QueryCursor struct {
	ks    []queryKey
	i     int
	drops uint64
}

// QueryCursor returns a cursor over node n's carried keys.
func (b *Base) QueryCursor(n trace.NodeID) QueryCursor {
	return QueryCursor{ks: b.qkeys[n], drops: b.drops[n]}
}

// Custody reports whether the cursor's node carries qc's key. Keys must
// not decrease from one call to the next.
//
//dtn:allocfree
func (c *QueryCursor) Custody(qc *QueryCarry) Custody {
	k := qc.key()
	for c.i < len(c.ks) && c.ks[c.i].less(k) {
		c.i++
	}
	return Custody{carried: c.i < len(c.ks) && c.ks[c.i] == k, drops: c.drops}
}

// Carries is CarriesQueryKey given an earlier Custody of the key at n:
// only a removal can undo "carried", so with none since, no search.
//
//dtn:allocfree
func (b *Base) Carries(n trace.NodeID, qc *QueryCarry, c Custody) bool {
	return c.carried && b.drops[n] == c.drops || b.CarriesQueryKey(n, qc)
}

// CarriesQueryID reports whether node n carries any copy of the query,
// regardless of target.
//
//dtn:allocfree
func (b *Base) CarriesQueryID(n trace.NodeID, id workload.QueryID) bool {
	ks := b.qkeys[n]
	i := searchQueryID(ks, id)
	return i < len(ks) && ks[i].ID == id
}

// Queries returns a copy of the query copies node n carries, in
// deterministic order (by query ID then target). Hot paths use
// ForEachQuery instead; this accessor allocates.
func (b *Base) Queries(n trace.NodeID) []*QueryCarry {
	return append([]*QueryCarry(nil), b.queries[n]...)
}

// ForEachQuery visits node n's query copies in (query ID, target)
// order without allocating. fn may drop the copy it is handed (and no
// other) from n's store; additions to n must be deferred.
//
//dtn:allocfree
func (b *Base) ForEachQuery(n trace.NodeID, fn func(qc *QueryCarry)) {
	for i := 0; i < len(b.queries[n]); {
		qc := b.queries[n][i]
		fn(qc)
		if i < len(b.queries[n]) && b.queries[n][i] == qc {
			i++
		}
	}
}

// ForEachGradient is ForEachQuery restricted to the copies not in
// broadcast mode, under the same contract. It reads only the flat mode
// tags between the copies it visits, and returns at once when n carries
// none.
//
//dtn:allocfree
func (b *Base) ForEachGradient(n trace.NodeID, fn func(qc *QueryCarry)) {
	if b.grads[n] == 0 {
		return
	}
	for i := 0; ; {
		tags := b.qtags[n]
		for i < len(tags) && tags[i] != tagGradient {
			i++
		}
		if i == len(tags) {
			return
		}
		qc := b.queries[n][i]
		fn(qc)
		if i < len(b.queries[n]) && b.queries[n][i] == qc {
			i++
		}
	}
}

// CarriesBroadcast reports whether node n carries any copy in broadcast
// mode.
//
//dtn:allocfree
func (b *Base) CarriesBroadcast(n trace.NodeID) bool {
	return len(b.qtags[n]) > b.grads[n]
}

// NCLSet is a set of NCL indexes: k in [0, 64*len(Bits)) is a member
// when bit k&63 of Bits[k>>6] is set, and every k outside that range
// is a member exactly when Outside is set.
type NCLSet struct {
	Bits    []uint64
	Outside bool
}

// hasTag reports whether a copy with mode tag t is a broadcast copy
// whose NCL is in the set.
//
//dtn:allocfree
func (m *NCLSet) hasTag(t int32) bool {
	if t < 0 || int(t) >= len(m.Bits)<<6 {
		return t != tagGradient && m.Outside
	}
	return m.Bits[t>>6]&(1<<uint(t&63)) != 0
}

// ForEachBroadcast is ForEachQuery restricted to the broadcast copies
// whose NCL is in m, under the same contract; fn may also set or clear
// bits of m, which later copies then see. It reads only the flat mode
// tags until a copy passes m.
//
//dtn:allocfree
func (b *Base) ForEachBroadcast(n trace.NodeID, m *NCLSet, fn func(qc *QueryCarry)) {
	for i := 0; ; {
		tags := b.qtags[n]
		for i < len(tags) && !m.hasTag(tags[i]) {
			i++
		}
		if i == len(tags) {
			return
		}
		qc := b.queries[n][i]
		fn(qc)
		if i < len(b.queries[n]) && b.queries[n][i] == qc {
			i++
		}
	}
}

// CarryReply adds a reply copy to node n (ignored if one for the same
// query is already carried or the query expired).
func (b *Base) CarryReply(n trace.NodeID, rc *ReplyCarry) {
	if rc.Q.Deadline <= b.E.Sim.Now() {
		return
	}
	rs := b.replies[n]
	i := searchReply(rs, rc.Q.ID)
	if i < len(rs) && rs[i].Q.ID == rc.Q.ID {
		return
	}
	rs = append(rs, nil)
	copy(rs[i+1:], rs[i:])
	rs[i] = rc
	b.replies[n] = rs
}

// DropReply removes a reply copy from node n.
func (b *Base) DropReply(n trace.NodeID, id workload.QueryID) {
	rs := b.replies[n]
	i := searchReply(rs, id)
	if i >= len(rs) || rs[i].Q.ID != id {
		return
	}
	last := len(rs) - 1
	copy(rs[i:], rs[i+1:])
	rs[last] = nil
	b.replies[n] = rs[:last]
}

// CarriesReply reports whether node n carries a reply for the query.
//
//dtn:allocfree
func (b *Base) CarriesReply(n trace.NodeID, id workload.QueryID) bool {
	rs := b.replies[n]
	i := searchReply(rs, id)
	return i < len(rs) && rs[i].Q.ID == id
}

// ForEachReply visits node n's reply copies in query-ID order without
// allocating, under the same contract as ForEachQuery.
//
//dtn:allocfree
func (b *Base) ForEachReply(n trace.NodeID, fn func(rc *ReplyCarry)) {
	for i := 0; i < len(b.replies[n]); {
		rc := b.replies[n][i]
		fn(rc)
		if i < len(b.replies[n]) && b.replies[n][i] == rc {
			i++
		}
	}
}

// MarkResponded records that node n has made its one-shot response
// decision for the query; it returns false if already decided.
//
//dtn:allocfree the bitset grows once per 64 query IDs, then stays flat
func (b *Base) MarkResponded(n trace.NodeID, id workload.QueryID) bool {
	w, bit := int(id)>>6, uint(id)&63
	r := b.responded[n]
	if w >= len(r) {
		//lint:allow allocfree one-time bitset growth, amortized over 64 IDs
		r = append(r, make([]uint64, w+1-len(r))...)
		b.responded[n] = r
	}
	if r[w]&(1<<bit) != 0 {
		return false
	}
	r[w] |= 1 << bit
	return true
}

// hasResponded reports whether node n has already made its one-shot
// response decision for the query.
//
//dtn:allocfree
func (b *Base) hasResponded(n trace.NodeID, id workload.QueryID) bool {
	w := int(id) >> 6
	r := b.responded[n]
	return w < len(r) && r[w]&(1<<(uint(id)&63)) != 0
}

// SweepExpired drops expired query and reply copies everywhere, along
// with the one-shot response decisions of expired queries. Schemes call
// it from OnSweep.
func (b *Base) SweepExpired(now float64) {
	for n := 0; n < b.E.N; n++ {
		qs, ks, ts := b.queries[n], b.qkeys[n], b.qtags[n]
		kept, grads := 0, 0
		for i, qc := range qs {
			if qc.Q.Deadline > now {
				qs[kept], ks[kept], ts[kept] = qc, ks[i], ts[i]
				kept++
				if ts[i] == tagGradient {
					grads++
				}
			}
		}
		b.grads[n] = grads
		if kept < len(qs) {
			clear(qs[kept:])
			b.drops[n]++
		}
		b.queries[n], b.qkeys[n], b.qtags[n] = qs[:kept], ks[:kept], ts[:kept]

		rs := b.replies[n]
		keptR := rs[:0]
		for _, rc := range rs {
			if rc.Q.Deadline > now {
				keptR = append(keptR, rc)
			}
		}
		clear(rs[len(keptR):])
		b.replies[n] = keptR

		for w, word := range b.responded[n] {
			for word != 0 {
				bit := bits.TrailingZeros64(word)
				word &^= 1 << uint(bit)
				id := w<<6 + bit
				if id < len(b.E.W.Queries) && b.E.W.Queries[id].Deadline <= now {
					b.responded[n][w] &^= 1 << uint(bit)
				}
			}
		}
	}
}

// QueryArrival is the scheme-specific handler invoked when a query copy
// reaches a node (its gradient target or any node during broadcast)
// over session s. Taking the session as an argument lets a scheme bind
// its handler once instead of closing over each contact.
type QueryArrival func(s *sim.Session, at trace.NodeID, qc *QueryCarry)

// ForwardQueries enqueues query transfers from node `from` to its
// session peer.
//
// A copy in the single-copy regime (Copies <= 1) is handed over when
// the peer is the copy's target or has a strictly higher metric weight
// toward the target; custody moves with it. A copy still in the spray
// regime (Copies > 1, binary spray-and-wait) instead *replicates*: any
// peer that has not seen the query receives half the copy budget, so
// the query fans out quickly before focusing on the target. onArrive
// runs at the receiver; copies in Broadcast mode are handled by the
// intentional scheme separately, so only gradient copies are visited.
func (b *Base) ForwardQueries(s *sim.Session, from trace.NodeID, onArrive QueryArrival) {
	to := s.Peer(from)
	now := b.E.Sim.Now()
	b.ForEachGradient(from, func(qc *QueryCarry) {
		if qc.Q.Deadline <= now {
			b.DropQuery(from, qc)
			return
		}
		if qc.Copies > 1 && to != qc.Target {
			b.sprayQuery(s, from, to, qc, onArrive)
			return
		}
		better := to == qc.Target ||
			b.E.MetricWeight(to, qc.Target) > b.E.MetricWeight(from, qc.Target)
		if !better {
			return
		}
		b.sendQuery(s, from, to, qc, onArrive, false)
	})
}

// sprayQuery hands half of a spray-mode copy's budget to a peer that
// has not seen the query yet (binary spray-and-wait).
func (b *Base) sprayQuery(s *sim.Session, from, to trace.NodeID, qc *QueryCarry, onArrive QueryArrival) {
	if b.CarriesQueryKey(to, qc) {
		return
	}
	b.sendQuery(s, from, to, qc, onArrive, true)
}

// queryXfer is one in-flight gradient or spray query transfer. Records
// are pooled on the Base with their callbacks bound once, so a
// transfer allocates no closures, as with the intentional scheme's
// broadcast records.
type queryXfer struct {
	b        *Base
	qc       *QueryCarry
	sess     *sim.Session
	onArrive QueryArrival
	key      inflight // key.node is the sender
	to       trace.NodeID
	sent     float64
	spray    bool

	onDelivered, onDropped func(at float64)
}

// sendQuery enqueues qc from `from` to its session peer unless the copy
// already has a transfer outstanding: a spray hop replicates half the
// copy budget, any other hop moves custody.
func (b *Base) sendQuery(s *sim.Session, from, to trace.NodeID, qc *QueryCarry, onArrive QueryArrival, spray bool) {
	key := inflight{node: from, query: qc.Q.ID, target: qc.Target}
	if b.inflightQ[key] {
		return
	}
	b.inflightQ[key] = true
	var x *queryXfer
	if n := len(b.xferFree); n > 0 {
		x = b.xferFree[n-1]
		b.xferFree[n-1] = nil
		b.xferFree = b.xferFree[:n-1]
	} else {
		x = &queryXfer{b: b}
		x.onDelivered, x.onDropped = x.delivered, x.dropped
	}
	x.qc, x.sess, x.onArrive, x.key, x.to, x.sent, x.spray = qc, s, onArrive, key, to, b.E.Sim.Now(), spray
	label := "query"
	if spray {
		label = "query-spray"
	}
	if !s.Enqueue(sim.Transfer{From: from, To: to, Bits: QueryBits, Label: label,
		OnDelivered: x.onDelivered, OnDropped: x.onDropped}) {
		x.release()
	}
}

// release clears the record's references and returns it to the pool.
func (x *queryXfer) release() {
	x.qc, x.sess, x.onArrive = nil, nil, nil
	x.b.xferFree = append(x.b.xferFree, x)
}

// dropped is the record's OnDropped callback: the copy never arrived.
func (x *queryXfer) dropped(float64) {
	delete(x.b.inflightQ, x.key)
	x.release()
}

// delivered is the record's OnDelivered callback.
func (x *queryXfer) delivered(at float64) {
	b, qc, s, onArrive, from, to, sent, spray := x.b, x.qc, x.sess, x.onArrive, x.key.node, x.to, x.sent, x.spray
	delete(b.inflightQ, x.key)
	x.release()
	b.E.M.ControlTransferred(QueryBits)
	if !spray {
		b.DropQuery(from, qc) // custody moves to the receiver
	}
	if qc.Q.Deadline <= at {
		return
	}
	arrived, op := qc, provenance.OpQuerySeg
	if spray {
		half := qc.Copies / 2
		qc.Copies -= half
		arrived, op = &QueryCarry{Q: qc.Q, Target: qc.Target, NCL: qc.NCL, Copies: half}, provenance.OpQuerySpray
	}
	b.CarryQuery(to, arrived)
	b.E.Prov.QueryHop(qc.Q.ID, qc.Target, from, to,
		sent, at, b.E.XferSec(QueryBits), op, !spray)
	if onArrive != nil {
		onArrive(s, to, arrived)
	}
}

// ReplyDelivered is invoked when a reply reaches its requester;
// firstOnTime reports whether it satisfied the query.
type ReplyDelivered func(rc *ReplyCarry, firstOnTime bool)

// ReplyRelay is invoked when a reply copy lands on an intermediate relay
// (pass-by data); incidental-caching baselines hook their caching
// decision here.
type ReplyRelay func(at trace.NodeID, rc *ReplyCarry)

// ForwardReplies enqueues reply (data) transfers from `from` to its
// session peer, moving each copy when the peer is the requester or has a
// strictly higher weight toward the requester within the remaining time.
// A copy already in flight is skipped before its weights are evaluated:
// both tests are pure, so their order does not change which copies move.
func (b *Base) ForwardReplies(s *sim.Session, from trace.NodeID, onDelivered ReplyDelivered, onRelay ReplyRelay) {
	to := s.Peer(from)
	now := b.E.Sim.Now()
	b.ForEachReply(from, func(rc *ReplyCarry) {
		if rc.Q.Deadline <= now {
			b.DropReply(from, rc.Q.ID)
			return
		}
		key := inflight{node: from, query: rc.Q.ID}
		if b.inflightR[key] {
			return
		}
		req := rc.Q.Requester
		remaining := rc.Q.Deadline - now
		better := to == req ||
			b.E.Weight(to, req, remaining) > b.E.Weight(from, req, remaining)
		if !better {
			return
		}
		b.inflightR[key] = true
		b.sendReply(s, from, to, rc, onDelivered, onRelay, false)
	})
}

// replyXfer is one in-flight reply transfer, pooled on the Base with
// its callbacks bound once, as queryXfer.
type replyXfer struct {
	b         *Base
	rc        *ReplyCarry
	onReply   ReplyDelivered
	onRelay   ReplyRelay
	key       inflight // key.node is the sender
	to        trace.NodeID
	sent      float64
	replicate bool // an epidemic copy: the sender keeps its own

	onDelivered, onDropped func(at float64)
}

// sendReply enqueues rc from `from` to its session peer. A moved copy
// (replicate false) holds the inflightR key the caller set; a
// replicated one leaves the sender's copy and custody alone.
func (b *Base) sendReply(s *sim.Session, from, to trace.NodeID, rc *ReplyCarry, onReply ReplyDelivered, onRelay ReplyRelay, replicate bool) {
	var x *replyXfer
	if n := len(b.replyFree); n > 0 {
		x = b.replyFree[n-1]
		b.replyFree[n-1] = nil
		b.replyFree = b.replyFree[:n-1]
	} else {
		x = &replyXfer{b: b}
		x.onDelivered, x.onDropped = x.delivered, x.dropped
	}
	x.rc, x.onReply, x.onRelay = rc, onReply, onRelay
	x.key, x.to, x.sent, x.replicate = inflight{node: from, query: rc.Q.ID}, to, b.E.Sim.Now(), replicate
	label := "reply"
	if replicate {
		label = "epidemic-reply"
	}
	if !s.Enqueue(sim.Transfer{From: from, To: to, Bits: rc.Item.SizeBits, Label: label,
		OnDelivered: x.onDelivered, OnDropped: x.onDropped}) {
		x.release()
	}
}

// release clears the record's references and returns it to the pool.
func (x *replyXfer) release() {
	x.rc, x.onReply, x.onRelay = nil, nil, nil
	x.b.replyFree = append(x.b.replyFree, x)
}

// dropped is the record's OnDropped callback: the copy never arrived.
func (x *replyXfer) dropped(float64) {
	if !x.replicate {
		delete(x.b.inflightR, x.key)
	}
	x.release()
}

// delivered is the record's OnDelivered callback.
func (x *replyXfer) delivered(at float64) {
	b, rc, onReply, onRelay, from, to, sent, moved := x.b, x.rc, x.onReply, x.onRelay, x.key.node, x.to, x.sent, !x.replicate
	if moved {
		delete(b.inflightR, x.key)
	}
	x.release()
	e := b.E
	e.M.DataTransferred(rc.Item.SizeBits)
	if moved {
		b.DropReply(from, rc.Q.ID)
	}
	if to == rc.Q.Requester {
		first := e.answerQuery(rc.Q, at)
		e.Prov.ReplyHop(rc.Q.ID, from, to,
			sent, at, e.XferSec(rc.Item.SizeBits), moved, true, first)
		if onReply != nil {
			onReply(rc, first)
		}
		return
	}
	b.CarryReply(to, rc)
	e.Prov.ReplyHop(rc.Q.ID, from, to,
		sent, at, e.XferSec(rc.Item.SizeBits), moved, false, false)
	if onRelay != nil {
		onRelay(to, rc)
	}
}

// Respond creates a reply at node n for query qc if n can serve the data
// and has not decided before. Central or source nodes pass force=true to
// bypass the probabilistic decision. It returns true if a reply was
// created.
func (b *Base) Respond(n trace.NodeID, qc *QueryCarry, force bool) bool {
	e := b.E
	now := e.Sim.Now()
	// The responded bit is read first: a node that has already decided
	// returns false either way, and on a redundant broadcast delivery
	// that skips the buffer lookup.
	if qc.Q.Deadline <= now || b.hasResponded(n, qc.Q.ID) || !e.HasData(n, qc.Q.Data) {
		return false
	}
	b.MarkResponded(n, qc.Q.ID)
	if !force {
		p := e.ResponseProb(n, qc.Q.Requester, qc.Q)
		if !e.Rng.Bernoulli(p) {
			return false
		}
	}
	item, ok := e.OwnData(n, qc.Q.Data)
	utility := 0.0 // source-owned data serves without an Eq. 6 value
	if !ok {
		en := e.Buffers[n].Get(qc.Q.Data)
		if en == nil {
			return false
		}
		item = en.Data
		if e.Prov != nil {
			utility = e.Popularity(&en.Requests, item.Expires)
		}
	}
	b.CarryReply(n, &ReplyCarry{Q: qc.Q, Item: item})
	e.noteResponse(n, qc.Q.ID)
	e.Prov.Pull(qc.Q.ID, qc.Target, n, now, int64(qc.Q.Data), utility)
	return true
}

// DropNodeState clears node n's volatile protocol state — carried
// query and reply copies and the local request history — as a crash
// would. The one-shot response bitset survives: whether a node has
// decided about a query is an identity property, and keeping it is
// what upholds the no-duplicate-response invariant across a reboot.
func (b *Base) DropNodeState(n trace.NodeID) {
	qs := b.queries[n]
	clear(qs)
	b.queries[n], b.qkeys[n], b.qtags[n] = qs[:0], b.qkeys[n][:0], b.qtags[n][:0]
	b.grads[n] = 0
	b.drops[n]++
	clear(b.replies[n])
	b.replies[n] = b.replies[n][:0]
	clear(b.history[n])
}
