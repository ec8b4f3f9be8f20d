package scheme

import (
	"dtncache/internal/sim"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// NoCache is the first comparison scheme of Sec. VI: no caching is used
// at all; every query is routed to the data source and only the source
// returns the data.
type NoCache struct {
	base *Base
	// onQuery is the queryArrived method value, bound once in Init so
	// per-contact forwarding does not allocate it.
	onQuery QueryArrival
}

// NewNoCache creates the scheme.
func NewNoCache() *NoCache { return &NoCache{} }

// Name implements Scheme.
func (s *NoCache) Name() string { return "NoCache" }

// Init implements Scheme.
func (s *NoCache) Init(e *Env) error {
	s.base = NewBase(e)
	s.onQuery = s.queryArrived
	return nil
}

// OnData implements Scheme. Sources retain their own data; nothing else
// happens.
func (s *NoCache) OnData(workload.DataItem) {}

// OnQuery implements Scheme: route a single query copy toward the
// source.
func (s *NoCache) OnQuery(q workload.Query) {
	item, ok := s.base.E.W.Item(q.Data)
	if !ok {
		return
	}
	qc := &QueryCarry{Q: q, Target: item.Source, NCL: -1}
	if q.Requester == item.Source {
		return
	}
	s.base.CarryQuery(q.Requester, qc)
}

// OnContactStart implements Scheme.
func (s *NoCache) OnContactStart(sess *sim.Session) {
	for _, from := range [2]trace.NodeID{sess.A, sess.B} {
		s.base.ForwardQueries(sess, from, s.onQuery)
		s.base.ForwardReplies(sess, from, nil, nil)
	}
}

// queryArrived answers a query copy that reached its target, the data
// source, and tries to send the fresh reply onward immediately.
func (s *NoCache) queryArrived(sess *sim.Session, at trace.NodeID, qc *QueryCarry) {
	if at == qc.Target && s.base.Respond(at, qc, true) {
		s.base.DropQuery(at, qc)
		s.base.ForwardReplies(sess, at, nil, nil)
	}
}

// OnContactEnd implements Scheme.
func (s *NoCache) OnContactEnd(*sim.Session) {}

// OnSweep implements Scheme.
func (s *NoCache) OnSweep(now float64) { s.base.SweepExpired(now) }

var _ Scheme = (*NoCache)(nil)
