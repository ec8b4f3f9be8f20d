package scheme

import (
	"dtncache/internal/buffer"
	"dtncache/internal/sim"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// RandomCache is the second comparison scheme of Sec. VI: every
// requester caches the data it receives (LRU replacement) to facilitate
// its own and others' future access. Queries are routed toward the data
// source, and any en-route node holding a cached copy replies.
type RandomCache struct {
	base   *Base
	policy buffer.LRU
	// onQuery and onDeliver are the queryArrived and deliver method
	// values, bound once in Init so per-contact forwarding does not
	// allocate them.
	onQuery   QueryArrival
	onDeliver ReplyDelivered
}

// NewRandomCache creates the scheme.
func NewRandomCache() *RandomCache { return &RandomCache{} }

// Name implements Scheme.
func (s *RandomCache) Name() string { return "RandomCache" }

// Init implements Scheme.
func (s *RandomCache) Init(e *Env) error {
	s.base = NewBase(e)
	s.onQuery, s.onDeliver = s.queryArrived, s.deliver
	return nil
}

// OnData implements Scheme.
func (s *RandomCache) OnData(workload.DataItem) {}

// OnQuery implements Scheme.
func (s *RandomCache) OnQuery(q workload.Query) {
	item, ok := s.base.E.W.Item(q.Data)
	if !ok || q.Requester == item.Source {
		return
	}
	s.base.CarryQuery(q.Requester, &QueryCarry{Q: q, Target: item.Source, NCL: -1})
}

// OnContactStart implements Scheme.
func (s *RandomCache) OnContactStart(sess *sim.Session) {
	for _, from := range [2]trace.NodeID{sess.A, sess.B} {
		s.base.ForwardQueries(sess, from, s.onQuery)
		s.base.ForwardReplies(sess, from, s.onDeliver, nil)
	}
}

// queryArrived lets any node holding the data reply and consume the
// query.
func (s *RandomCache) queryArrived(sess *sim.Session, at trace.NodeID, qc *QueryCarry) {
	if s.base.E.HasData(at, qc.Q.Data) && s.base.Respond(at, qc, true) {
		s.base.DropQuery(at, qc)
		s.base.ForwardReplies(sess, at, s.onDeliver, nil)
	}
}

// deliver caches received data at the requester (the defining behavior
// of RandomCache), evicting via LRU as needed.
func (s *RandomCache) deliver(rc *ReplyCarry, _ bool) {
	e := s.base.E
	if rc.Item.Expired(e.Sim.Now()) {
		return
	}
	buffer.PutEvict(e.Buffers[rc.Q.Requester], s.policy, rc.Item, e.Sim.Now())
}

// OnContactEnd implements Scheme.
func (s *RandomCache) OnContactEnd(*sim.Session) {}

// OnSweep implements Scheme.
func (s *RandomCache) OnSweep(now float64) { s.base.SweepExpired(now) }

var _ Scheme = (*RandomCache)(nil)
