package scheme

import (
	"dtncache/internal/sim"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// BundleCache adapts the DTN bundle-caching scheme of [23] as described
// in Sec. VI: pass-by data is cached by relays that weigh the data's
// popularity *and* the relay's own contact pattern, aiming to minimize
// the average data access delay. Well-connected relays therefore attract
// more cached bundles than in CacheData, but caching locations remain
// incidental (wherever replies happen to travel) rather than
// intentional.
type BundleCache struct {
	// cd carries the query and reply handling, which differs from
	// CacheData's only in the relay caching rule (relayCache).
	cd CacheData

	// reach[n] is node n's contact capability: its NCL-style metric
	// normalized to [0,1] against the best node in the network, refreshed
	// on sweeps.
	reach []float64
}

// NewBundleCache creates the scheme.
func NewBundleCache() *BundleCache { return &BundleCache{} }

// Name implements Scheme.
func (s *BundleCache) Name() string { return "BundleCache" }

// Init implements Scheme.
func (s *BundleCache) Init(e *Env) error {
	if err := s.cd.Init(e); err != nil {
		return err
	}
	s.cd.onRelay = s.relayCache
	s.reach = make([]float64, e.N)
	return nil
}

// OnData implements Scheme.
func (s *BundleCache) OnData(workload.DataItem) {}

// OnQuery implements Scheme.
func (s *BundleCache) OnQuery(q workload.Query) { s.cd.OnQuery(q) }

// OnContactStart implements Scheme.
func (s *BundleCache) OnContactStart(sess *sim.Session) { s.cd.OnContactStart(sess) }

// relayCache decides whether this relay caches the pass-by bundle: the
// probability is the relay's contact capability relative to the
// best-connected node, so bundles concentrate at nodes that can serve
// the network quickly (minimizing expected access delay, the objective
// of [23]). Eviction within the buffer is by popularity, as in
// CacheData.
func (s *BundleCache) relayCache(at trace.NodeID, rc *ReplyCarry) {
	if s.cd.base.E.Rng.Bernoulli(s.capability(at)) {
		s.cd.relayCache(at, rc)
	}
}

// capability lazily computes node n's contact metric normalized by the
// best node's, clamped to [0.02, 1]. The metric values come precomputed
// on the knowledge snapshot instead of a fresh all-pairs recompute.
func (s *BundleCache) capability(n trace.NodeID) float64 {
	if s.reach[n] > 0 {
		return s.reach[n]
	}
	e := s.cd.base.E
	best := 0.0
	var all []float64
	all = e.Knowledge().Metrics()
	for _, m := range all {
		if m > best {
			best = m
		}
	}
	for i, m := range all {
		c := 0.02
		if best > 0 {
			c = m / best
		}
		if c < 0.02 {
			c = 0.02
		}
		s.reach[i] = c
	}
	return s.reach[n]
}

// OnContactEnd implements Scheme.
func (s *BundleCache) OnContactEnd(*sim.Session) {}

// OnSweep implements Scheme: refresh capability estimates occasionally
// and expire carried messages.
func (s *BundleCache) OnSweep(now float64) {
	for i := range s.reach {
		s.reach[i] = 0 // recompute lazily against fresh knowledge
	}
	s.cd.OnSweep(now)
}

var _ Scheme = (*BundleCache)(nil)
