// Package core implements the paper's contribution: intentional
// cooperative caching at Network Central Locations (Sec. V).
//
// Data sources push each new item toward the K central nodes; the nodes
// that end up holding a copy (the central node itself, or the relay
// where forwarding stopped because the next relay's buffer was full)
// form the NCL's caching subgraph. Requesters pull data by multicasting
// queries to the central nodes; central nodes answer directly or
// broadcast the query within their caching subgraph, where caching nodes
// answer probabilistically (Sec. V-C). Whenever two caching nodes meet,
// utility-based cache replacement (Sec. V-D, Eq. 7 + Algorithm 1)
// migrates popular data toward the central nodes.
//
//dtn:determinism
package core

import (
	"errors"

	"dtncache/internal/buffer"
	"dtncache/internal/obs"
	"dtncache/internal/provenance"
	"dtncache/internal/scheme"
	"dtncache/internal/sim"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// Option customizes the intentional caching scheme.
type Option func(*Intentional)

// WithUtilityFloor sets the minimum utility assigned to data that has
// not been requested yet (footnote 3 of the paper notes fresh data has
// low utility; a floor keeps it from being dropped outright during
// replacement). Default 0.1.
func WithUtilityFloor(f float64) Option {
	return func(s *Intentional) { s.utilityFloor = f }
}

// WithReplacement toggles cache replacement entirely (ablation).
// Default on.
func WithReplacement(on bool) Option {
	return func(s *Intentional) { s.replacementOn = on }
}

// WithQuerySpray enables binary spray-and-wait dissemination for the
// query multicast with the given copy budget L per NCL target (the
// paper leaves the multicast scheme open, Sec. V-B; the default is
// single-copy gradient forwarding). L <= 1 keeps the default.
func WithQuerySpray(l int) Option {
	return func(s *Intentional) { s.sprayCopies = l }
}

// WithEvictionPolicy swaps the paper's knapsack replacement for a
// classic eviction policy (FIFO, LRU, Greedy-Dual-Size): arriving pushes
// evict per the policy instead of stopping at full buffers, and no
// contact-time exchange happens. This is the "traditional replacement
// strategies" configuration of Fig. 12.
func WithEvictionPolicy(p buffer.Policy) Option {
	return func(s *Intentional) {
		s.evictPolicy = p
		s.replacementOn = false
	}
}

// pushKey identifies one pending push copy at the data source.
type pushKey struct {
	Data workload.DataID
	NCL  int
}

// pendingPush is one pending push copy in a node's slice-backed store,
// kept sorted by (Data, NCL) so contact-time iteration needs no
// per-contact key sort and membership checks are binary searches.
type pendingPush struct {
	key  pushKey
	item workload.DataItem
	// tries counts push transfer attempts for this copy; with a
	// positive Config.PushRetryBudget the copy is abandoned once the
	// budget is exhausted, so a permanently unreachable NCL cannot
	// cause unbounded re-offers.
	tries int
}

// searchPending returns the insertion index of key k in ps.
func searchPending(ps []pendingPush, k pushKey) int {
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ps[mid].key.Data < k.Data || (ps[mid].key.Data == k.Data && ps[mid].key.NCL < k.NCL) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Intentional is the paper's NCL-based cooperative caching scheme.
type Intentional struct {
	base *scheme.Base
	env  *scheme.Env

	// pending[source] holds push copies that have not yet left the data
	// source (the source retains its own data, so these consume no
	// buffer there and simply retry at every contact), sorted by
	// (Data, NCL).
	pending [][]pendingPush

	utilityFloor  float64
	replacementOn bool
	evictPolicy   buffer.Policy
	sprayCopies   int

	// inflightPush guards single-copy custody of push copies across
	// overlapping contacts (key: holder node + data + NCL index).
	inflightPush map[pushTransfer]bool

	// reachedNCL and respondedAt record, per query, when its first copy
	// reached a central node and when the first responder created a
	// reply — the instrumentation behind the Sec. V-E delay
	// decomposition.
	reachedNCL  map[workload.QueryID]float64
	respondedAt map[workload.QueryID]float64

	stats PushStats

	// bcastFree, moveFree and pushFree pool broadcast-query, migration
	// and push transfer records (bcastXfer, moveXfer, pushXfer).
	bcastFree []*bcastXfer
	moveFree  []*moveXfer
	pushFree  []*pushXfer
	// peer holds the NCLs whose caching subgraph broadcastQueries' peer
	// may belong to (peerCandidates); unresolved marks the members whose
	// failover stand-in is still to be checked (peerCaches).
	peer       scheme.NCLSet
	unresolved []uint64
	// repl is replace's reusable working memory.
	repl replScratch
	// onReply and onQuery are the replyDelivered and queryArrived method
	// values, bound once in Init so per-contact forwarding does not
	// allocate them.
	onReply scheme.ReplyDelivered
	onQuery scheme.QueryArrival

	// obs counters, nil when observability is off.
	cPushes       *obs.Counter
	cReplaceDrops *obs.Counter
}

// pushTransfer identifies one outstanding push transfer.
type pushTransfer struct {
	holder trace.NodeID
	data   workload.DataID
	ncl    int
}

// PushStats are diagnostic counters for the push path (Sec. V-A).
type PushStats struct {
	// SourceDepartures counts push copies leaving their data source.
	SourceDepartures int
	// RelayHops counts relay-to-relay push transfers.
	RelayHops int
	// CachedAtCenter counts copies that reached their central node.
	CachedAtCenter int
	// StoppedAtRelay counts copies whose forwarding stopped at a relay
	// because the next relay's buffer was full.
	StoppedAtRelay int
	// ExpiredPending counts pushes that expired before leaving the
	// source.
	ExpiredPending int
	// AbandonedPushes counts pending copies dropped after exhausting
	// the push retry budget.
	AbandonedPushes int
	// ReReplicated counts crash-lost cached copies re-queued for push
	// from their sources (NCL failover recovery).
	ReReplicated int
}

// Stats returns the push-path diagnostic counters.
func (s *Intentional) Stats() PushStats { return s.stats }

// New creates the scheme.
func New(opts ...Option) *Intentional {
	s := &Intentional{utilityFloor: 0.1, replacementOn: true}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name implements scheme.Scheme.
func (s *Intentional) Name() string {
	if s.evictPolicy != nil {
		return "Intentional-" + s.evictPolicy.Name()
	}
	return "Intentional"
}

// Init implements scheme.Scheme.
func (s *Intentional) Init(e *scheme.Env) error {
	if e.Cfg.K < 1 {
		return errors.New("core: intentional caching needs K >= 1")
	}
	s.env = e
	s.base = scheme.NewBase(e)
	s.pending = make([][]pendingPush, e.N)
	s.inflightPush = make(map[pushTransfer]bool)
	s.reachedNCL = make(map[workload.QueryID]float64)
	s.respondedAt = make(map[workload.QueryID]float64)
	s.onReply = s.replyDelivered
	s.onQuery = s.queryArrived
	s.cPushes = e.Obs.Counter("core", "pushes")
	s.cReplaceDrops = e.Obs.Counter("core", "replacement_drops")
	return nil
}

// markReached records the first arrival of a query at a central node.
func (s *Intentional) markReached(id workload.QueryID) {
	if _, ok := s.reachedNCL[id]; !ok {
		s.reachedNCL[id] = s.env.Sim.Now()
	}
}

// markResponded records the first reply creation for a query.
func (s *Intentional) markResponded(id workload.QueryID) {
	if _, ok := s.respondedAt[id]; !ok {
		s.respondedAt[id] = s.env.Sim.Now()
	}
}

// replyDelivered feeds the Sec. V-E decomposition when the first on-time
// copy reaches the requester: part (i) query to NCL, part (ii) NCL
// broadcast until a caching node responds, part (iii) data return.
func (s *Intentional) replyDelivered(rc *scheme.ReplyCarry, first bool) {
	if !first {
		return
	}
	at := s.env.Sim.Now()
	responded, ok := s.respondedAt[rc.Q.ID]
	if !ok {
		return
	}
	reached, ok := s.reachedNCL[rc.Q.ID]
	if !ok || reached > responded {
		// An en-route caching node answered before the query reached any
		// central node: no broadcast part.
		reached = responded
	}
	s.env.M.DelayPhases(reached-rc.Q.Issued, responded-reached, at-responded)
}

// OnData implements scheme.Scheme: the source prepares one push copy per
// NCL (Sec. V-A).
func (s *Intentional) OnData(item workload.DataItem) {
	ncls := s.env.NCLs()
	for k := range ncls {
		s.pendingSet(item.Source, pushKey{Data: item.ID, NCL: k}, item)
	}
}

// OnQuery implements scheme.Scheme: the requester multicasts the query
// to every central node (Sec. V-B).
func (s *Intentional) OnQuery(q workload.Query) {
	ncls := s.env.NCLs()
	for k := range ncls {
		// Target the node currently acting as this NCL's central: with
		// failover enabled a down center's stand-in, and on a retry the
		// re-issued copy aims at whatever is reachable now.
		center := s.env.EffectiveNCL(k)
		qc := &scheme.QueryCarry{Q: q, Target: center, NCL: k, Copies: s.sprayCopies}
		if q.Requester == center {
			// The requester is itself a central node: process arrival
			// immediately.
			s.queryAtCenter(q.Requester, qc)
			continue
		}
		s.base.CarryQuery(q.Requester, qc)
	}
}

// OnContactStart implements scheme.Scheme. Transfer priority within the
// contact: queries (small control messages) first, then replies, then
// data pushes, then replacement migrations.
func (s *Intentional) OnContactStart(sess *sim.Session) {
	s.sendFrom(sess, sess.A)
	s.sendFrom(sess, sess.B)
	if s.replacementOn {
		s.replace(sess)
	}
}

// sendFrom enqueues one direction of a contact, in priority order.
func (s *Intentional) sendFrom(sess *sim.Session, from trace.NodeID) {
	s.base.ForwardQueries(sess, from, s.onQuery)
	s.broadcastQueries(sess, from)
	s.base.ForwardReplies(sess, from, s.onReply, nil)
	s.pushFromSource(sess, from)
	s.pushFromRelay(sess, from)
}

// queryArrived handles a gradient query copy delivered to node at over
// sess.
func (s *Intentional) queryArrived(sess *sim.Session, at trace.NodeID, qc *scheme.QueryCarry) {
	if at == qc.Target {
		s.queryAtCenter(at, qc)
		// A fresh reply may leave on this same contact.
		s.base.ForwardReplies(sess, at, s.onReply, nil)
		return
	}
	// An en-route relay that happens to be a caching node for the data
	// answers probabilistically (it belongs to some NCL's caching
	// subgraph); the query still continues to the center.
	if s.env.Buffers[at].Get(qc.Q.Data) != nil && s.base.Respond(at, qc, false) {
		s.markResponded(qc.Q.ID)
		s.touch(at, qc.Q.Data)
		s.base.ForwardReplies(sess, at, s.onReply, nil)
	}
}

// queryAtCenter handles a query copy reaching its central node: answer
// directly when the data is held locally, otherwise switch the copy to
// broadcast mode so it floods the NCL's caching subgraph (Sec. V-B).
func (s *Intentional) queryAtCenter(center trace.NodeID, qc *scheme.QueryCarry) {
	s.base.Observe(center, qc.Q.Data, s.env.Sim.Now())
	s.markReached(qc.Q.ID)
	if s.env.HasData(center, qc.Q.Data) {
		if s.base.Respond(center, qc, true) {
			s.markResponded(qc.Q.ID)
			s.touch(center, qc.Q.Data)
		}
		return
	}
	s.base.SetBroadcast(center, qc)
	s.env.Prov.NCLMiss(qc.Q.ID, qc.Target, center, s.env.Sim.Now(), qc.NCL)
	s.base.CarryQuery(center, qc)
}

// broadcastQueries spreads broadcast-mode query copies from `from` to
// the session peer when the peer belongs to the same NCL's caching
// subgraph. Unlike gradient forwarding, broadcast copies replicate.
// Each transfer rides a pooled bcastXfer record instead of a fresh
// copy and closure: broadcast copies are the bulk of all transfers.
//
// The peer's subgraph membership is computed once per call as a set of
// NCLs, and only the sender's broadcast copies homed in that set are
// visited; the peer's custody of each copy's key is read off a forward
// cursor. The loop only enqueues transfers, so neither the peer's
// buffer nor its query store can change inside it.
func (s *Intentional) broadcastQueries(sess *sim.Session, from trace.NodeID) {
	to := sess.Peer(from)
	if !s.base.CarriesBroadcast(from) || !s.peerCandidates(to) {
		return
	}
	now := s.env.Sim.Now()
	cur := s.base.QueryCursor(to)
	s.base.ForEachBroadcast(from, &s.peer, func(qc *scheme.QueryCarry) {
		if qc.Q.Deadline <= now || !s.peerCaches(to, qc.NCL) {
			return
		}
		x := s.getBcast()
		x.qc, x.sess, x.from, x.to, x.sent = qc, sess, from, to, now
		x.held = cur.Custody(qc)
		if !sess.Enqueue(sim.Transfer{
			From: from, To: to, Bits: scheme.QueryBits, Label: "bcast-query",
			OnDelivered: x.onDelivered, OnDropped: x.onDropped,
		}) {
			x.release()
		}
	})
}

// peerCandidates sets s.peer to the NCLs k for which isCachingNode(to,
// k) may hold, in one pass over the centers and to's buffer, and
// reports whether the set is non-empty. Its bits are exact except in
// two cases that peerCaches settles per copy. Outside is set when to
// holds an entry homed outside the bitset's range, where only that
// entry scan can tell. And under NCL failover every center other than
// to is a candidate until its stand-in is read: EffectiveNCL may then
// rebuild and log the failover assignment, so it runs only for the
// NCLs of the copies actually offered, exactly as a per-copy test would.
func (s *Intentional) peerCandidates(to trace.NodeID) bool {
	ncls := s.env.NCLs()
	words := (len(ncls) + 63) >> 6
	bits := cleared(&s.peer.Bits, words)
	lazy := cleared(&s.unresolved, words)
	s.peer.Outside = false
	fixed := s.env.FixedCenters()
	for k, c := range ncls {
		bit := uint64(1) << uint(k&63)
		if c == to {
			bits[k>>6] |= bit
		} else if !fixed {
			bits[k>>6] |= bit
			lazy[k>>6] |= bit
		}
	}
	for _, en := range s.env.Buffers[to].Entries() {
		if k := en.Home; k >= 0 && k < words<<6 {
			bits[k>>6] |= 1 << uint(k&63)
		} else {
			s.peer.Outside = true
		}
	}
	found := s.peer.Outside
	for _, w := range bits {
		found = found || w != 0
	}
	return found
}

// peerCaches is isCachingNode(to, k) for a member k of s.peer: exact
// bits answer at once, an unresolved stand-in is checked once per call,
// and an NCL outside the bitset's range is checked every time.
func (s *Intentional) peerCaches(to trace.NodeID, k int) bool {
	if k < 0 || k >= len(s.peer.Bits)<<6 {
		return s.isCachingNode(to, k)
	}
	w, bit := k>>6, uint64(1)<<uint(k&63)
	if s.unresolved[w]&bit == 0 {
		return true
	}
	s.unresolved[w] &^= bit
	if s.isCachingNode(to, k) {
		return true
	}
	s.peer.Bits[w] &^= bit
	return false
}

// bcastXfer is one in-flight broadcast query copy. Records are pooled
// on Intentional (bcastFree) and return to the pool from whichever
// completion callback fires — the driver fires exactly one per accepted
// transfer — or at once when Enqueue refuses the transfer. The
// callbacks are method values bound once per record, like
// sim.Session's onDone.
type bcastXfer struct {
	s *Intentional
	// qc is the sender's copy. Its Q, Target and NCL never change after
	// creation, and they are all the receiving side reads.
	qc       *scheme.QueryCarry
	sess     *sim.Session
	from, to trace.NodeID
	sent     float64
	// held is the receiver's custody of qc's key at enqueue, which
	// usually spares delivery a search (Base.Carries).
	held scheme.Custody

	onDelivered, onDropped func(at float64)
}

// getBcast pops a record from the pool or allocates one.
func (s *Intentional) getBcast() *bcastXfer {
	if n := len(s.bcastFree); n > 0 {
		x := s.bcastFree[n-1]
		s.bcastFree[n-1] = nil
		s.bcastFree = s.bcastFree[:n-1]
		return x
	}
	x := &bcastXfer{s: s}
	x.onDelivered, x.onDropped = x.delivered, x.dropped
	return x
}

// release clears the record's references and returns it to the pool.
func (x *bcastXfer) release() {
	x.qc, x.sess = nil, nil
	x.s.bcastFree = append(x.s.bcastFree, x)
}

// dropped is the record's OnDropped callback: the copy never arrived.
func (x *bcastXfer) dropped(float64) { x.release() }

// delivered is the record's OnDelivered callback. The receiver gets
// its own carry only when it holds no copy of the same (query, target)
// yet; the hop, the request observation and the probabilistic answer
// (Sec. V-C) read the sender's copy.
func (x *bcastXfer) delivered(at float64) {
	s, qc, sess, from, to, sent, held := x.s, x.qc, x.sess, x.from, x.to, x.sent, x.held
	x.release()
	e := s.env
	e.M.ControlTransferred(scheme.QueryBits)
	if qc.Q.Deadline <= at {
		return
	}
	if !s.base.Carries(to, qc, held) {
		s.base.CarryQuery(to, &scheme.QueryCarry{Q: qc.Q, Target: qc.Target, NCL: qc.NCL, Broadcast: true})
	}
	if e.Prov != nil {
		e.Prov.QueryHop(qc.Q.ID, qc.Target, from, to,
			sent, at, e.XferSec(scheme.QueryBits), provenance.OpQueryBcast, false)
	}
	s.base.Observe(to, qc.Q.Data, at)
	if s.base.Respond(to, qc, false) {
		s.markResponded(qc.Q.ID)
		s.touch(to, qc.Q.Data)
		s.base.ForwardReplies(sess, to, s.onReply, nil)
	}
}

// isCachingNode reports whether n belongs to NCL k's caching subgraph:
// it is the central node or holds a copy (cached or in transit) homed at
// k.
func (s *Intentional) isCachingNode(n trace.NodeID, k int) bool {
	ncls := s.env.NCLs()
	if k >= 0 && k < len(ncls) && (ncls[k] == n || s.env.EffectiveNCL(k) == n) {
		return true
	}
	for _, en := range s.env.Buffers[n].Entries() {
		if en.Home == k {
			return true
		}
	}
	return false
}

// pushFromSource advances pending push copies waiting at data sources.
func (s *Intentional) pushFromSource(sess *sim.Session, from trace.NodeID) {
	to := sess.Peer(from)
	now := s.env.Sim.Now()
	s.forEachPending(from, func(key pushKey, item workload.DataItem) {
		if item.Expired(now) {
			s.pendingDelete(from, key)
			s.stats.ExpiredPending++
			return
		}
		center := s.env.EffectiveNCL(key.NCL)
		if from == center {
			// The source is the central node; cache locally if possible.
			if s.tryCache(from, item, key.NCL, false) {
				s.pendingDelete(from, key)
			}
			return
		}
		if !s.betterToward(to, from, center) {
			return
		}
		if s.env.Buffers[to].Has(item.ID) || s.hasPending(to, item.ID) {
			// The peer already carries a copy of this item (for another
			// NCL, or as its own pending push): each of the K copies must
			// settle on a distinct node, so try a different relay later.
			return
		}
		if s.evictPolicy == nil && s.env.Buffers[to].Free() < item.SizeBits {
			// Next relay's buffer is full: the source keeps the copy
			// pending (it retains its own data regardless) and retries
			// later. (With a traditional eviction policy configured, the
			// relay admits the data by evicting instead.)
			return
		}
		tk := pushTransfer{holder: from, data: key.Data, ncl: key.NCL}
		if s.inflightPush[tk] {
			return
		}
		if budget := s.env.Cfg.PushRetryBudget; budget > 0 && !s.pendingTryConsume(from, key, budget) {
			s.pendingDelete(from, key)
			s.stats.AbandonedPushes++
			return
		}
		s.push(sess, tk, to, center, item, false)
	})
}

// pushFromRelay advances in-transit copies held by relays toward their
// central node; when the next relay has no room, forwarding stops and
// the copy is cached at the current relay (Sec. V-A).
func (s *Intentional) pushFromRelay(sess *sim.Session, from trace.NodeID) {
	to := sess.Peer(from)
	now := s.env.Sim.Now()
	ncls := s.env.NCLs()
	for _, en := range s.env.Buffers[from].Entries() {
		if !en.InTransit || en.Data.Expired(now) {
			continue
		}
		if en.Home < 0 || en.Home >= len(ncls) {
			en.InTransit = false
			continue
		}
		center := s.env.EffectiveNCL(en.Home)
		if from == center {
			en.InTransit = false
			continue
		}
		if !s.betterToward(to, from, center) {
			continue
		}
		if s.env.Buffers[to].Has(en.Data.ID) || s.hasPending(to, en.Data.ID) {
			// Peer already holds this item for another NCL; keep looking
			// for a distinct relay to preserve K separate copies.
			continue
		}
		if s.evictPolicy == nil && s.env.Buffers[to].Free() < en.Data.SizeBits {
			// Next selected relay is full: cache here.
			en.InTransit = false
			s.stats.StoppedAtRelay++
			continue
		}
		tk := pushTransfer{holder: from, data: en.Data.ID, ncl: en.Home}
		if s.inflightPush[tk] {
			continue
		}
		s.push(sess, tk, to, center, en.Data, true)
	}
}

// push sends a push copy of item from tk's holder to the peer to,
// toward center, over the live contact: from the data source's pending
// copies, or from a relay's buffer. The transfer rides a pooled
// pushXfer record; a refused transfer gives its in-flight key up at
// once.
func (s *Intentional) push(sess *sim.Session, tk pushTransfer, to, center trace.NodeID,
	item workload.DataItem, relay bool) {
	s.inflightPush[tk] = true
	s.cPushes.Inc()
	s.env.Obs.Push(s.env.Sim.Now(), int32(tk.holder), int32(to), int64(tk.data), int64(tk.ncl))
	x := s.getPush()
	x.tk, x.to, x.center, x.item, x.relay = tk, to, center, item, relay
	if !sess.Enqueue(sim.Transfer{
		From: tk.holder, To: to, Bits: item.SizeBits, Label: "push",
		OnDelivered: x.onDelivered, OnDropped: x.onDropped,
	}) {
		x.dropped(0)
	}
}

// pushXfer is one in-flight push copy, pooled on Intentional
// (pushFree) like moveXfer: its callbacks are method values bound once
// per record, and it returns to the pool from whichever one fires.
type pushXfer struct {
	s          *Intentional
	tk         pushTransfer // holder is the sender, ncl the copy's home
	to, center trace.NodeID
	item       workload.DataItem
	relay      bool // sent from a relay's buffer, not a source's pending copies

	onDelivered, onDropped func(at float64)
}

// getPush pops a record from the pool or allocates one.
func (s *Intentional) getPush() *pushXfer {
	if n := len(s.pushFree); n > 0 {
		x := s.pushFree[n-1]
		s.pushFree = s.pushFree[:n-1]
		return x
	}
	x := &pushXfer{s: s}
	x.onDelivered, x.onDropped = x.delivered, x.dropped
	return x
}

// dropped is the record's OnDropped callback: the copy stays with its
// sender, free to be pushed again.
func (x *pushXfer) dropped(float64) {
	delete(x.s.inflightPush, x.tk)
	x.s.pushFree = append(x.s.pushFree, x)
}

// delivered is the record's OnDelivered callback. The receiver caches
// the copy, in transit unless it is the center, and the sender gives
// its copy up: a source its pending copy, a relay its buffered one.
func (x *pushXfer) delivered(at float64) {
	s, from, to, center, item, relay := x.s, x.tk.holder, x.to, x.center, x.item, x.relay
	key := pushKey{Data: x.tk.data, NCL: x.tk.ncl}
	x.dropped(at)
	s.env.M.DataTransferred(item.SizeBits)
	buf := s.env.Buffers[from]
	var cur *buffer.Entry
	switch {
	case !relay:
		if item.Expired(at) || !s.pendingHas(from, key) {
			return // expired, or another path already placed this copy
		}
	case item.Expired(at):
		buf.Remove(item.ID)
		return
	default:
		if cur = buf.Get(item.ID); cur == nil || !cur.InTransit {
			return // moved or settled meanwhile (e.g. replacement)
		}
	}
	if !s.tryCache(to, item, key.NCL, to != center) {
		if relay {
			cur.InTransit = false // the receiver could not cache after all: stop here
		}
		return
	}
	if relay {
		buf.Remove(item.ID) // the relay deletes its own copy after forwarding
		s.stats.RelayHops++
	} else {
		s.pendingDelete(from, key)
		s.stats.SourceDepartures++
	}
	if to == center {
		s.stats.CachedAtCenter++
	}
}

// betterToward reports whether `to` has a strictly higher opportunistic
// path weight toward center than `from` (the relay selection metric of
// Sec. V-A), read from the knowledge snapshot's precomputed weight
// matrix, or is the center itself.
func (s *Intentional) betterToward(to, from, center trace.NodeID) bool {
	if to == center {
		return true
	}
	snap := s.env.Knowledge()
	return snap.MetricWeight(to, center) > snap.MetricWeight(from, center)
}

// tryCache inserts a pushed copy at node n homed at NCL k. With the
// paper's replacement, it fails when the buffer lacks space (no eviction
// on the push path; contact-time replacement is the only mechanism that
// removes live data). With a classic eviction policy configured
// (Fig. 12 comparison), the policy evicts to make room instead.
func (s *Intentional) tryCache(n trace.NodeID, item workload.DataItem, k int, inTransit bool) bool {
	buf := s.env.Buffers[n]
	now := s.env.Sim.Now()
	var en *buffer.Entry
	if s.evictPolicy == nil && buf.Has(item.ID) {
		// Raced with another copy landing here; keep single custody and
		// let the sender retry elsewhere.
		return false
	}
	if s.evictPolicy != nil {
		evicted, ok := buffer.PutEvict(buf, s.evictPolicy, item, now)
		s.env.M.ReplacementMove(len(evicted))
		if !ok {
			return false
		}
		en = buf.Get(item.ID)
	} else {
		var err error
		en, err = buf.Put(item, now)
		if err != nil {
			return false
		}
	}
	en.Home = k
	en.InTransit = inTransit
	en.Requests = s.base.Stats(n, item.ID)
	if s.env.Obs != nil {
		s.env.Obs.CacheInsert(now, int32(n), int64(item.ID),
			s.env.Popularity(&en.Requests, item.Expires))
	}
	return true
}

// touch lets the configured eviction policy observe a cache hit when a
// cached entry serves a query (LRU recency, GDS cost refresh).
func (s *Intentional) touch(n trace.NodeID, id workload.DataID) {
	if s.evictPolicy == nil {
		return
	}
	if en := s.env.Buffers[n].Get(id); en != nil {
		s.evictPolicy.OnHit(s.env.Buffers[n], en, s.env.Sim.Now())
	}
}

// pendingSet inserts (or refreshes) a pending push copy at node n.
// Refreshing resets the retry budget: the copy is a fresh placement
// attempt.
func (s *Intentional) pendingSet(n trace.NodeID, k pushKey, item workload.DataItem) {
	ps := s.pending[n]
	i := searchPending(ps, k)
	if i < len(ps) && ps[i].key == k {
		ps[i].item = item
		ps[i].tries = 0
		return
	}
	ps = append(ps, pendingPush{})
	copy(ps[i+1:], ps[i:])
	ps[i] = pendingPush{key: k, item: item}
	s.pending[n] = ps
}

// pendingTryConsume charges one push attempt against the copy's retry
// budget, reporting whether the attempt is still within budget.
func (s *Intentional) pendingTryConsume(n trace.NodeID, k pushKey, budget int) bool {
	ps := s.pending[n]
	i := searchPending(ps, k)
	if i >= len(ps) || ps[i].key != k {
		return true
	}
	ps[i].tries++
	return ps[i].tries <= budget
}

// pendingHas reports whether node n still holds this exact pending copy.
func (s *Intentional) pendingHas(n trace.NodeID, k pushKey) bool {
	ps := s.pending[n]
	i := searchPending(ps, k)
	return i < len(ps) && ps[i].key == k
}

// pendingDelete removes a pending push copy from node n.
func (s *Intentional) pendingDelete(n trace.NodeID, k pushKey) {
	ps := s.pending[n]
	i := searchPending(ps, k)
	if i >= len(ps) || ps[i].key != k {
		return
	}
	copy(ps[i:], ps[i+1:])
	s.pending[n] = ps[:len(ps)-1]
}

// forEachPending visits node n's pending copies in (Data, NCL) order
// without allocating. fn may delete the copy it is handed (and no
// other); additions happen only from OnData, never during a contact.
func (s *Intentional) forEachPending(n trace.NodeID, fn func(k pushKey, item workload.DataItem)) {
	for i := 0; i < len(s.pending[n]); {
		p := s.pending[n][i]
		fn(p.key, p.item)
		if i < len(s.pending[n]) && s.pending[n][i].key == p.key {
			i++
		}
	}
}

// hasPending reports whether node n has a pending source push for the
// item (only data sources do).
func (s *Intentional) hasPending(n trace.NodeID, id workload.DataID) bool {
	ps := s.pending[n]
	i := searchPending(ps, pushKey{Data: id, NCL: 0})
	// NCL indexes are non-negative, so (id, 0) sorts at or before any
	// pending copy of the item.
	return i < len(ps) && ps[i].key.Data == id
}

// sortedPending returns node n's pending push keys in deterministic
// (Data, NCL) order — the store's native order.
func (s *Intentional) sortedPending(n trace.NodeID) []pushKey {
	keys := make([]pushKey, 0, len(s.pending[n]))
	for _, p := range s.pending[n] {
		keys = append(keys, p.key)
	}
	return keys
}

// OnContactEnd implements scheme.Scheme.
func (s *Intentional) OnContactEnd(*sim.Session) {}

// OnSweep implements scheme.Scheme.
func (s *Intentional) OnSweep(now float64) {
	s.base.SweepExpired(now)
	for n := range s.pending {
		kept := s.pending[n][:0]
		for _, p := range s.pending[n] {
			if !p.item.Expired(now) {
				kept = append(kept, p)
			}
		}
		s.pending[n] = kept
	}
	for id := range s.reachedNCL {
		if s.env.W.Queries[id].Deadline <= now {
			delete(s.reachedNCL, id)
		}
	}
	for id := range s.respondedAt {
		if s.env.W.Queries[id].Deadline <= now {
			delete(s.respondedAt, id)
		}
	}
}

// OnNodeDown implements scheme.FaultAware: the crashed node's volatile
// protocol state (carried queries/replies, request history) is dropped;
// under NCLFailover, cached copies it lost are re-queued as pending
// pushes at their sources — the re-replication half of the failover
// rule. Sources qualify only while they still hold the item as own
// data (stable storage survives crashes).
func (s *Intentional) OnNodeDown(n trace.NodeID, at float64, wiped []*buffer.Entry) {
	s.base.DropNodeState(n)
	if !s.env.Cfg.NCLFailover {
		return
	}
	for _, en := range wiped {
		if en.Home < 0 || en.Data.Expired(at) {
			continue
		}
		src := en.Data.Source
		if src == n {
			continue
		}
		if _, ok := s.env.OwnData(src, en.Data.ID); !ok {
			continue
		}
		s.pendingSet(src, pushKey{Data: en.Data.ID, NCL: en.Home}, en.Data)
		s.stats.ReReplicated++
		s.env.Obs.Replicate(at, int32(src), int64(en.Data.ID), int64(en.Home))
	}
}

// OnNodeUp implements scheme.FaultAware. Recovery needs no immediate
// action: the node re-enters the protocol at its next contact, and
// re-replication was already queued at crash time.
func (s *Intentional) OnNodeUp(trace.NodeID, float64) {}

var _ scheme.Scheme = (*Intentional)(nil)
var _ scheme.FaultAware = (*Intentional)(nil)
