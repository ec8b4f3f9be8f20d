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
	// floodFree pools flooded query transfer records (floodXfer).
	floodFree []*floodXfer
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
		var x *floodXfer
		if n := len(s.floodFree); n > 0 {
			x = s.floodFree[n-1]
			s.floodFree[n-1] = nil
			s.floodFree = s.floodFree[:n-1]
		} else {
			x = &floodXfer{s: s}
			x.onDelivered, x.onDropped = x.delivered, x.dropped
		}
		x.qc, x.sess, x.from, x.to, x.sent = qc, sess, from, to, now
		if !sess.Enqueue(sim.Transfer{From: from, To: to, Bits: QueryBits, Label: "epidemic-query",
			OnDelivered: x.onDelivered, OnDropped: x.onDropped}) {
			x.release()
		}
	})
}

// floodXfer is one in-flight flooded query copy, pooled on the scheme
// with its callbacks bound once, as Base's queryXfer.
type floodXfer struct {
	s *Epidemic
	// qc is the sender's copy. Its Q and Target never change after
	// creation, and they are all the receiving side reads.
	qc       *QueryCarry
	sess     *sim.Session
	from, to trace.NodeID
	sent     float64

	onDelivered, onDropped func(at float64)
}

// release clears the record's references and returns it to the pool.
func (x *floodXfer) release() {
	x.qc, x.sess = nil, nil
	x.s.floodFree = append(x.s.floodFree, x)
}

// dropped is the record's OnDropped callback: the copy never arrived.
func (x *floodXfer) dropped(float64) { x.release() }

// delivered is the record's OnDelivered callback.
func (x *floodXfer) delivered(at float64) {
	s, qc, sess, from, to, sent := x.s, x.qc, x.sess, x.from, x.to, x.sent
	x.release()
	e := s.base.E
	e.M.ControlTransferred(QueryBits)
	if qc.Q.Deadline <= at {
		return
	}
	copyQC := &QueryCarry{Q: qc.Q, Target: qc.Target, NCL: -1}
	s.base.CarryQuery(to, copyQC)
	// A flooded copy is a replication: the sender keeps its own.
	e.Prov.QueryHop(copyQC.Q.ID, copyQC.Target, from, to,
		sent, at, e.XferSec(QueryBits), provenance.OpQueryBcast, false)
	if e.HasData(to, copyQC.Q.Data) && s.base.Respond(to, copyQC, true) {
		s.floodReplies(sess, to)
	}
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
		// The sender keeps its reply copy, as with queries.
		s.base.sendReply(sess, from, to, rc, nil, nil, true)
	})
}

// OnContactEnd implements Scheme.
func (s *Epidemic) OnContactEnd(*sim.Session) {}

// OnSweep implements Scheme.
func (s *Epidemic) OnSweep(now float64) { s.base.SweepExpired(now) }

var _ Scheme = (*Epidemic)(nil)
