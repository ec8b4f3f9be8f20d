package scheme

import (
	"dtncache/internal/provenance"
	"dtncache/internal/sim"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// Epidemic is a flooding reference scheme (Vahdat & Becker's Epidemic
// routing, the origin of DTN forwarding per Sec. II): queries replicate
// to every contacted node, any node holding the data replies, and
// replies replicate likewise. Subject to link bandwidth it approaches
// the minimum achievable access delay, at maximal transmission overhead
// — a useful upper-bound reference that the paper's related work builds
// from, though it is not one of the Fig. 10 comparison schemes.
type Epidemic struct {
	base *Base
}

// NewEpidemic creates the scheme.
func NewEpidemic() *Epidemic { return &Epidemic{} }

// Name implements Scheme.
func (s *Epidemic) Name() string { return "Epidemic" }

// Init implements Scheme.
func (s *Epidemic) Init(e *Env) error {
	s.base = NewBase(e)
	return nil
}

// OnData implements Scheme.
func (s *Epidemic) OnData(workload.DataItem) {}

// OnQuery implements Scheme.
func (s *Epidemic) OnQuery(q workload.Query) {
	item, ok := s.base.E.W.Item(q.Data)
	if !ok || q.Requester == item.Source {
		return
	}
	// Flooded copies carry no specific target; Target records the source
	// only so distinct queries for the same data stay distinguishable.
	s.base.CarryQuery(q.Requester, &QueryCarry{Q: q, Target: item.Source, NCL: -1})
}

// OnContactStart implements Scheme: replicate queries and replies in
// both directions; holders respond.
func (s *Epidemic) OnContactStart(sess *sim.Session) {
	for _, from := range []trace.NodeID{sess.A, sess.B} {
		s.floodQueries(sess, from)
		s.floodReplies(sess, from)
	}
}

func (s *Epidemic) floodQueries(sess *sim.Session, from trace.NodeID) {
	e := s.base.E
	to := sess.Peer(from)
	now := e.Sim.Now()
	s.base.ForEachQuery(from, func(qc *QueryCarry) {
		if qc.Q.Deadline <= now {
			s.base.DropQuery(from, qc)
			return
		}
		if s.base.CarriesQueryID(to, qc.Q.ID) {
			return
		}
		copyQC := &QueryCarry{Q: qc.Q, Target: qc.Target, NCL: -1}
		sess.Enqueue(sim.Transfer{
			From: from, To: to, Bits: e.Cfg.QueryBits, Label: "epidemic-query",
			OnDelivered: func(at float64) {
				e.M.ControlTransferred(e.Cfg.QueryBits)
				if copyQC.Q.Deadline <= at {
					return
				}
				s.base.CarryQuery(to, copyQC)
				// A flooded copy is a replication: the sender keeps its own.
				e.Prov.QueryHop(copyQC.Q.ID, copyQC.Target, from, to,
					now, at, e.XferSec(e.Cfg.QueryBits), provenance.OpQueryBcast, false)
				if e.HasData(to, copyQC.Q.Data) && s.base.Respond(to, copyQC, true) {
					s.floodReplies(sess, to)
				}
			},
		})
	})
}

func (s *Epidemic) floodReplies(sess *sim.Session, from trace.NodeID) {
	e := s.base.E
	to := sess.Peer(from)
	now := e.Sim.Now()
	s.base.ForEachReply(from, func(rc *ReplyCarry) {
		if rc.Q.Deadline <= now {
			s.base.DropReply(from, rc.Q.ID)
			return
		}
		if s.base.CarriesReply(to, rc.Q.ID) {
			return
		}
		sess.Enqueue(sim.Transfer{
			From: from, To: to, Bits: rc.Item.SizeBits, Label: "epidemic-reply",
			OnDelivered: func(at float64) {
				e.M.DataTransferred(rc.Item.SizeBits)
				// The sender keeps its reply copy, as with queries.
				if to == rc.Q.Requester {
					first := e.answerQuery(rc.Q, at)
					e.Prov.ReplyHop(rc.Q.ID, from, to,
						now, at, e.XferSec(rc.Item.SizeBits), false, true, first)
					return
				}
				s.base.CarryReply(to, rc)
				e.Prov.ReplyHop(rc.Q.ID, from, to,
					now, at, e.XferSec(rc.Item.SizeBits), false, false, false)
			},
		})
	})
}

// OnContactEnd implements Scheme.
func (s *Epidemic) OnContactEnd(*sim.Session) {}

// OnSweep implements Scheme.
func (s *Epidemic) OnSweep(now float64) { s.base.SweepExpired(now) }

var _ Scheme = (*Epidemic)(nil)
