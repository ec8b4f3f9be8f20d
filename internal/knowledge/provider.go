package knowledge

import (
	"sort"
	"sync"

	"dtncache/internal/obs"
	"dtncache/internal/trace"
)

// maxCached bounds how many snapshots a shared provider retains. It
// must cover a whole default refresh grid (duration/100 from the
// mid-trace warmup, ~51 points): consumers of a comparison walk the
// same grid but not in lockstep — on few cores they run one after
// another — so a bound smaller than the grid makes each later consumer
// miss every time (a sequential scan over an undersized cache evicts
// entries just before their reuse). Evicting the oldest beyond the
// bound merely costs a rebuild if a very late consumer asks again; with
// Epsilon = 0 a rebuild is bit-identical, so eviction never changes
// results. A private provider keeps one snapshot instead (see
// Provider).
const maxCached = 128

// Provider builds and caches snapshots for one (contact source, Params)
// pipeline. It is safe for concurrent use: schemes in a comparison
// share a provider, and whichever requests a refresh time first builds
// it (incrementally, against the newest earlier snapshot) while the
// rest reuse the cached value.
//
// Retention follows ownership. A shared provider (NewStreamProvider,
// which engine.SharedKnowledge builds) keeps up to maxCached snapshots,
// the whole refresh grid its consumers walk out of lockstep. A private
// provider (NewPrivateStreamProvider, which a scheme environment builds
// for its own run, and NewProvider) has one consumer walking the grid
// forward, so it keeps only its newest snapshot: the next build's
// incremental base, and all that consumer reads again.
//
// With Epsilon = 0 every snapshot is bit-identical to a full recompute,
// so results never depend on which consumer built what or on eviction
// timing. With Epsilon > 0 a snapshot depends on its incremental base;
// that approximate mode is deterministic only for a single consumer
// requesting monotonically increasing times.
//
//dtn:shared the mutex-guarded snapshot cache crosses sweep cells
type Provider struct {
	builder *Builder
	keep    int // snapshots retained: maxCached if shared, 1 if private

	mu      sync.Mutex
	byTime  map[float64]*Snapshot
	times   []float64 // sorted build times of cached snapshots
	version int
	empty   *Snapshot

	// feed folds the provider's contact source into the counts each
	// build starts from. A source failure is sticky in streamErr.
	feed      *contactFeed
	streamErr error

	rec      *obs.Recorder
	cBuilds  *obs.Counter
	cHits    *obs.Counter
	gaCached *obs.Gauge
}

// NewProvider creates a private provider that counts every contact of
// the given list, which must be sorted by start time. The contacts are
// counted raw, unmerged, as the offline Fig. 4 analysis, nclstat and
// the NCL ablations expect; NewStreamProvider counts merged contacts
// instead.
func NewProvider(p Params, contacts []trace.Contact) *Provider {
	return newProvider(p, 1, func() (trace.ContactSource, error) {
		return trace.NewSliceSource(contacts), nil
	})
}

// NewStreamProvider creates a shared provider that counts the merged
// contacts (trace.MergeSource) of a contact source — one per session
// the simulator driver opens, which is what a scheme's rate estimator
// observes. Knowledge builds never need the whole trace in memory.
// open must return a fresh source positioned at the start each call:
// the provider reopens to rewind when snapshots are requested out of
// time order.
//
// A source error makes the affected snapshot see only the prefix read
// so far and is reported by StreamErr; runs observing a non-nil
// StreamErr must be discarded.
func NewStreamProvider(p Params, open func() (trace.ContactSource, error)) *Provider {
	return newProvider(p, maxCached, mergedOpener(open))
}

// NewPrivateStreamProvider is NewStreamProvider for a single consumer
// that requests monotonically increasing times, such as the scheme
// environment that builds it for its own run: it keeps only its newest
// snapshot. An older time is still served, rebuilt exactly.
func NewPrivateStreamProvider(p Params, open func() (trace.ContactSource, error)) *Provider {
	return newProvider(p, 1, mergedOpener(open))
}

func mergedOpener(open func() (trace.ContactSource, error)) func() (trace.ContactSource, error) {
	return func() (trace.ContactSource, error) {
		src, err := open()
		if err != nil {
			return nil, err
		}
		return trace.NewMergeSource(src), nil
	}
}

func newProvider(p Params, keep int, open func() (trace.ContactSource, error)) *Provider {
	b := NewBuilder(p, nil)
	return &Provider{
		builder: b,
		keep:    keep,
		byTime:  make(map[float64]*Snapshot),
		feed:    &contactFeed{open: open, nodes: b.Params().Nodes},
	}
}

// Params returns the normalized pipeline configuration, for
// compatibility checks when a provider is shared.
func (pr *Provider) Params() Params { return pr.builder.Params() }

// StreamErr returns the sticky error, if any, the provider's contact
// source reported. Always nil for a provider over a contact slice.
func (pr *Provider) StreamErr() error {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.streamErr
}

// SetRecorder attaches observability: knowledge/builds and
// knowledge/cache_hits counters, a knowledge/cached_snapshots gauge and
// a "knowledge-build" phase span per build. Only attach to a privately
// owned provider — a provider shared across parallel sweep cells must
// stay recorder-free so one cell's metrics do not absorb another's
// builds.
func (pr *Provider) SetRecorder(r *obs.Recorder) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.rec = r
	if r == nil {
		pr.cBuilds, pr.cHits, pr.gaCached = nil, nil, nil
		return
	}
	pr.cBuilds = r.Counter("knowledge", "builds")
	pr.cHits = r.Counter("knowledge", "cache_hits")
	pr.gaCached = r.Gauge("knowledge", "cached_snapshots")
}

// Empty returns the version-0 snapshot of an empty graph: the knowledge
// an Env holds before its first refresh.
func (pr *Provider) Empty() *Snapshot {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.empty == nil {
		pr.empty = pr.builder.Build(0, nil, 0)
	}
	return pr.empty
}

// At returns the snapshot of the contact prefix up to time t, building
// it on first request. The build is incremental against the newest
// cached snapshot older than t when one exists.
func (pr *Provider) At(t float64) *Snapshot {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if s, ok := pr.byTime[t]; ok {
		pr.cHits.Inc()
		return s
	}
	var base *Snapshot
	// The newest cached time strictly before t, if any.
	if i := sort.SearchFloat64s(pr.times, t); i > 0 {
		base = pr.byTime[pr.times[i-1]]
	}
	pr.version++
	done := pr.rec.Phase("knowledge-build")
	counts, err := pr.feed.countsAt(t)
	if err != nil && pr.streamErr == nil {
		pr.streamErr = err
	}
	s := pr.builder.buildFromCounts(counts, t, base, pr.version)
	done()
	pr.cBuilds.Inc()
	pr.byTime[t] = s
	i := sort.SearchFloat64s(pr.times, t)
	pr.times = append(pr.times, 0)
	copy(pr.times[i+1:], pr.times[i:])
	pr.times[i] = t
	if len(pr.times) > pr.keep {
		delete(pr.byTime, pr.times[0])
		pr.times = pr.times[1:]
	}
	pr.gaCached.Set(int64(len(pr.times)))
	return s
}
