package scheme

import (
	"sort"

	"dtncache/internal/buffer"
	"dtncache/internal/sim"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// CacheData adapts the cooperative-caching scheme of Yin & Cao [29]
// (designed for connected wireless ad-hoc networks) to DTN contacts, as
// the paper does for its evaluation: relays on the query path cache
// pass-by data according to the data's popularity observed from the
// queries they forwarded, and relays holding a cached copy answer
// queries directly.
type CacheData struct {
	base *Base
	// onQuery and onRelay are the queryArrived and relayCache method
	// values, bound once in Init so per-contact forwarding does not
	// allocate them. BundleCache binds its own relay rule.
	onQuery QueryArrival
	onRelay ReplyRelay
}

// NewCacheData creates the scheme.
func NewCacheData() *CacheData { return &CacheData{} }

// Name implements Scheme.
func (s *CacheData) Name() string { return "CacheData" }

// Init implements Scheme.
func (s *CacheData) Init(e *Env) error {
	s.base = NewBase(e)
	s.onQuery, s.onRelay = s.queryArrived, s.relayCache
	return nil
}

// OnData implements Scheme.
func (s *CacheData) OnData(workload.DataItem) {}

// OnQuery implements Scheme.
func (s *CacheData) OnQuery(q workload.Query) {
	item, ok := s.base.E.W.Item(q.Data)
	if !ok || q.Requester == item.Source {
		return
	}
	s.base.Observe(q.Requester, q.Data, q.Issued)
	s.base.CarryQuery(q.Requester, &QueryCarry{Q: q, Target: item.Source, NCL: -1})
}

// OnContactStart implements Scheme.
func (s *CacheData) OnContactStart(sess *sim.Session) {
	for _, from := range [2]trace.NodeID{sess.A, sess.B} {
		s.base.ForwardQueries(sess, from, s.onQuery)
		s.base.ForwardReplies(sess, from, nil, s.onRelay)
	}
}

// queryArrived records the query in the relay's history — relays
// collect it as queries pass through them, and it drives the
// popularity-based caching decision — and lets a node holding the data
// reply and consume the query.
func (s *CacheData) queryArrived(sess *sim.Session, at trace.NodeID, qc *QueryCarry) {
	s.base.Observe(at, qc.Q.Data, s.base.E.Sim.Now())
	if s.base.E.HasData(at, qc.Q.Data) && s.base.Respond(at, qc, true) {
		s.base.DropQuery(at, qc)
		s.base.ForwardReplies(sess, at, nil, s.onRelay)
	}
}

// relayCache is the CacheData rule: an intermediate relay caches pass-by
// data when its locally observed popularity beats the least popular
// cached entries, evicting those.
func (s *CacheData) relayCache(at trace.NodeID, rc *ReplyCarry) {
	s.CachePassBy(s.base, at, rc.Item, func(id workload.DataID, expires float64) float64 {
		rs := s.base.Stats(at, id)
		return s.base.E.Popularity(&rs, expires)
	})
}

// CachePassBy inserts item into node n's buffer if its utility (per the
// supplied utility function) exceeds that of the entries that would need
// to be evicted; lower-utility entries are evicted first and only while
// the incoming item stays strictly more useful. BundleCache reaches it
// through relayCache too, behind its capability gate.
func (*CacheData) CachePassBy(b *Base, n trace.NodeID, item workload.DataItem,
	utility func(id workload.DataID, expires float64) float64) {
	e := b.E
	now := e.Sim.Now()
	if item.Expired(now) || item.SizeBits > e.Buffers[n].Capacity() || e.Buffers[n].Has(item.ID) {
		return
	}
	buf := e.Buffers[n]
	incoming := utility(item.ID, item.Expires)
	// Evict strictly-less-useful entries until the item fits; give up
	// (and undo nothing — eviction order is least useful first, so what
	// was evicted was the least valuable anyway) if it cannot fit.
	// Entries() is the buffer's internal ID-sorted store; copy before
	// reordering by utility.
	entries := append([]*buffer.Entry(nil), buf.Entries()...)
	sort.Slice(entries, func(i, j int) bool {
		ui := utility(entries[i].Data.ID, entries[i].Data.Expires)
		uj := utility(entries[j].Data.ID, entries[j].Data.Expires)
		if ui != uj {
			return ui < uj
		}
		return entries[i].Data.ID < entries[j].Data.ID
	})
	idx := 0
	for item.SizeBits > buf.Free() && idx < len(entries) {
		victim := entries[idx]
		idx++
		if utility(victim.Data.ID, victim.Data.Expires) >= incoming {
			return // remaining entries are all at least as useful
		}
		buf.Remove(victim.Data.ID)
	}
	if item.SizeBits <= buf.Free() {
		if _, err := buf.Put(item, now); err == nil {
			if en := buf.Get(item.ID); en != nil {
				rs := b.Stats(n, item.ID)
				en.Requests = rs
			}
		}
	}
}

// OnContactEnd implements Scheme.
func (s *CacheData) OnContactEnd(*sim.Session) {}

// OnSweep implements Scheme.
func (s *CacheData) OnSweep(now float64) { s.base.SweepExpired(now) }

var _ Scheme = (*CacheData)(nil)
