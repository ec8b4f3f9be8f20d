// Package engine is the driver-agnostic simulation engine behind every
// way this repository replays the paper's protocol: the batch CLI
// (cmd/dtnsim), the figure/table sweeps (internal/experiment) and the
// long-running cache service (cmd/dtnserved) all build a Config, call
// New, and drive the returned Engine through the same small imperative
// API — Publish, Query, Advance, Report, Close. There is exactly
// one replay code path: the engine owns the pooled event heap
// (internal/sim), the scheme and core protocol state, the knowledge
// Provider with its per-refresh NCL recompute, the obs Recorder and
// the fault Engine; drivers differ only in where publishes, queries
// and clock advancement come from.
//
// The engine itself never reads the wall clock and never spawns
// goroutines: virtual time advances only through Advance/Run, so
// a batch driver can replay as fast as the hardware allows while a
// service driver paces the same event stream against real time. All
// methods serialize on one mutex, making an Engine safe for concurrent
// drivers (HTTP handlers, pacers) without giving up the simulator's
// single-threaded determinism.
//
//dtn:determinism
package engine

import (
	"fmt"

	"dtncache/internal/buffer"
	"dtncache/internal/core"
	"dtncache/internal/knowledge"
	"dtncache/internal/scheme"
	"dtncache/internal/trace"
)

// Config describes one engine instance: the trace, the scheme under
// evaluation, the workload parameters of Sec. VI-A and the protocol
// configuration. It is the scheme environment's own Config, so New
// hands it through unchanged; zero values pick the paper's defaults.
type Config = scheme.Config

// Scheme names accepted by Factory.
const (
	SchemeIntentional     = scheme.DefaultScheme
	SchemeNoCache         = "NoCache"
	SchemeRandomCache     = "RandomCache"
	SchemeCacheData       = "CacheData"
	SchemeBundleCache     = "BundleCache"
	SchemeEpidemic        = "Epidemic"
	SchemeIntentionalFIFO = "Intentional-FIFO"
	SchemeIntentionalLRU  = "Intentional-LRU"
	SchemeIntentionalGDS  = "Intentional-GDS"
)

// SchemeNames lists every runnable scheme, comparison order of Fig. 10.
func SchemeNames() []string {
	return []string{
		SchemeIntentional, SchemeBundleCache, SchemeCacheData,
		SchemeRandomCache, SchemeNoCache,
	}
}

// ReplacementNames lists the Fig. 12 replacement comparison.
func ReplacementNames() []string {
	return []string{
		SchemeIntentional, SchemeIntentionalFIFO,
		SchemeIntentionalLRU, SchemeIntentionalGDS,
	}
}

// factoryFor builds the scheme honoring Config's ablation knobs
// (they only apply to the Intentional scheme; Validate has rejected
// negative values).
func factoryFor(c Config) (func() scheme.Scheme, error) {
	if c.Scheme == SchemeIntentional &&
		(c.DisableReplacement || c.UtilityFloor > 0 || c.QuerySprayCopies > 1) {
		var opts []core.Option
		if c.DisableReplacement {
			opts = append(opts, core.WithReplacement(false))
		}
		if c.UtilityFloor > 0 {
			opts = append(opts, core.WithUtilityFloor(c.UtilityFloor))
		}
		if c.QuerySprayCopies > 1 {
			opts = append(opts, core.WithQuerySpray(c.QuerySprayCopies))
		}
		return func() scheme.Scheme { return core.New(opts...) }, nil
	}
	return Factory(c.Scheme)
}

// Factory returns a constructor for the named scheme.
func Factory(name string) (func() scheme.Scheme, error) {
	switch name {
	case SchemeIntentional:
		return func() scheme.Scheme { return core.New() }, nil
	case SchemeEpidemic:
		return func() scheme.Scheme { return scheme.NewEpidemic() }, nil
	case SchemeNoCache:
		return func() scheme.Scheme { return scheme.NewNoCache() }, nil
	case SchemeRandomCache:
		return func() scheme.Scheme { return scheme.NewRandomCache() }, nil
	case SchemeCacheData:
		return func() scheme.Scheme { return scheme.NewCacheData() }, nil
	case SchemeBundleCache:
		return func() scheme.Scheme { return scheme.NewBundleCache() }, nil
	case SchemeIntentionalFIFO:
		return func() scheme.Scheme { return core.New(core.WithEvictionPolicy(buffer.FIFO{})) }, nil
	case SchemeIntentionalLRU:
		return func() scheme.Scheme { return core.New(core.WithEvictionPolicy(buffer.LRU{})) }, nil
	case SchemeIntentionalGDS:
		return func() scheme.Scheme { return core.New(core.WithEvictionPolicy(&buffer.GreedyDualSize{})) }, nil
	default:
		return nil, fmt.Errorf("engine: unknown scheme %q", name)
	}
}

// SharedKnowledge builds a knowledge provider for tr that concurrent
// engines share via Config.Knowledge: one contact-rate → paths →
// NCL-metric pipeline per trace instead of one per environment. A
// snapshot is a pure function of its build time, so shared results are
// bit-identical to isolated ones. It keeps the whole refresh grid cached (shared
// retention), since its consumers walk the grid out of lockstep; a run
// without one builds a private provider that keeps only its newest
// snapshot. metricT = 0 picks the trace's default horizon, the same
// rule Config normalization applies.
func SharedKnowledge(tr *trace.Trace, metricT float64) *knowledge.Provider {
	if metricT == 0 {
		metricT = scheme.DefaultMetricT(tr.Name)
	}
	return knowledge.NewStreamProvider(knowledge.Params{
		Nodes:   tr.Nodes,
		MetricT: metricT,
	}, func() (trace.ContactSource, error) { return trace.NewSliceSource(tr.Contacts), nil })
}
