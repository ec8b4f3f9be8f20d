// Package engine is the driver-agnostic simulation engine behind every
// way this repository replays the paper's protocol: the batch CLI
// (cmd/dtnsim), the figure/table sweeps (internal/experiment) and the
// long-running cache service (cmd/dtnserved) all build a Config, call
// New, and drive the returned Engine through the same small imperative
// API — Publish, Query, Advance, Report, Close. There is exactly
// one replay code path: the engine owns the pooled event heap
// (internal/sim), the scheme and core protocol state, the knowledge
// Provider with its incremental NCL recompute, the obs Recorder and
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
	"errors"
	"fmt"

	"dtncache/internal/buffer"
	"dtncache/internal/core"
	"dtncache/internal/fault"
	"dtncache/internal/knowledge"
	"dtncache/internal/obs"
	"dtncache/internal/scheme"
	"dtncache/internal/trace"
)

// Config describes one engine instance: a trace, the scheme under
// evaluation, workload parameters (Sec. VI-A) and protocol
// configuration. Zero values pick the paper's defaults.
type Config struct {
	// Trace is the contact trace to replay (required).
	Trace *trace.Trace
	// Scheme names the data access scheme (SchemeIntentional when
	// empty). internal/experiment sets it from its schemeName argument.
	Scheme string
	// Live disables the generated batch workload: data items and
	// queries enter the engine exclusively through Engine.Publish and
	// Engine.Query (the dtnserved service mode). Batch mode (default)
	// materializes the paper's workload up front.
	Live bool
	// MetricT is the path-weight horizon T; 0 picks the paper's value
	// for the trace name (1h Infocom, 1wk Reality, 3d UCSD, else 1 day).
	MetricT float64
	// AvgLifetime is T_L (default 1 week).
	AvgLifetime float64
	// AvgSizeBits is s_avg (default 100 Mb).
	AvgSizeBits float64
	// ZipfExponent is the query exponent s (default 1).
	ZipfExponent float64
	// GenProb is p_G (default 0.2).
	GenProb float64
	// K is the NCL count (default 8).
	K int
	// NCLSelection picks the central-node selection strategy (the
	// paper's Eq. 3 metric by default; degree/contact-count/random are
	// ablation baselines).
	NCLSelection scheme.NCLStrategy
	// BufferMinBits/BufferMaxBits bound node buffers (default 200-600 Mb).
	BufferMinBits, BufferMaxBits float64
	// Response is the probabilistic response mode (default sigmoid).
	Response scheme.ResponseMode
	// ProbabilisticSelection toggles Algorithm 1 (default on).
	// Set DisableProbabilisticSelection to turn it off.
	DisableProbabilisticSelection bool
	// PopularityFromFirst picks the literal Eq. (6) variant.
	PopularityFromFirst bool
	// DisableReplacement turns the contact-time cache replacement off
	// entirely (ablation; affects the Intentional scheme only).
	DisableReplacement bool
	// UtilityFloor overrides the fresh-data utility floor of the
	// Intentional scheme's replacement (0 keeps the default 0.1).
	UtilityFloor float64
	// QuerySprayCopies enables spray-and-wait query dissemination with
	// this copy budget per NCL target (0/1 = single-copy gradient).
	QuerySprayCopies int
	// PerNodeInterests gives each requester its own Zipf rank
	// permutation (extension; the paper's global popularity is default).
	PerNodeInterests bool
	// Fault configures the deterministic fault-injection engine: node
	// churn, contact truncation, transfer kills, NCL blackouts. The zero
	// value installs no injector.
	Fault fault.Config
	// QueryRetrySec re-issues still-unsatisfied queries after this
	// timeout with capped exponential backoff (0 = no retries).
	QueryRetrySec float64
	// QueryRetryMax caps retry attempts per query (0 = scheme default).
	QueryRetryMax int
	// NCLFailover lets the intentional scheme redirect pushes and query
	// fan-out from crashed central nodes to the next-ranked live node.
	NCLFailover bool
	// PushRetryBudget abandons a pending push after this many attempts
	// (0 = retry forever, the pre-fault behavior).
	PushRetryBudget int
	// CheckInvariants runs the runtime invariant checker every
	// maintenance sweep (tests, dtnsim -invariants and the dtnserved
	// /healthz gate).
	CheckInvariants bool
	// Seed drives workload and protocol randomness (default 1).
	Seed int64
	// Knowledge optionally shares a prebuilt knowledge provider across
	// runs (see SharedKnowledge). It must have been built for this
	// trace's merged contacts with the same MetricT; nil gives each run
	// its own provider. Knowledge is independent of Seed, workload and
	// scheme, so one provider serves every cell of a sweep over the
	// same trace.
	Knowledge *knowledge.Provider
	// Stream optionally replays contacts from a streaming source instead
	// of Trace.Contacts, so city-scale traces never materialize in
	// memory; nil replays Trace.Contacts through the same path. The
	// opener must return a fresh source positioned at the start on
	// every call — the engine opens one stream for the contact driver
	// and one (plus one per rewind) for the knowledge feed. Trace is
	// still required and supplies the metadata (Name, Nodes, Duration);
	// its Contacts may be empty. Callers should check Engine.ReplayErr
	// after the run.
	Stream func() (trace.ContactSource, error)
	// Obs is the observability recorder wired into the environment (nil
	// = off). Metric updates are atomic, so one recorder may be shared
	// across parallel cells (RunComparison, sweeps) — but only a
	// sink-free recorder: trace encoding reuses one buffer, so a
	// recorder with a trace sink must be confined to a single
	// sequential run (where it records byte-identical traces at a fixed
	// seed). cmd/experiments keeps sweep-cell trace events on a
	// separate mutex-guarded recorder for this reason.
	Obs *obs.Recorder

	// SpanRetain keeps the provenance span trees of up to this many
	// finished queries queryable through Engine.SpanTree (and
	// dtnserved's /v1/trace endpoint). 0, the default, retains nothing;
	// spans still stream into the run-trace whenever Obs has a sink.
	SpanRetain int
}

// Normalized returns the config with every zero-valued knob replaced
// by its paper default — the exact value set New builds from. Drivers
// that derive per-run state from the config (shared knowledge
// pipelines, manifests) normalize first so they see what will run.
// Normalization is idempotent.
func (c Config) Normalized() (Config, error) { return c.normalized() }

// normalized fills defaults.
func (c Config) normalized() (Config, error) {
	if c.Trace == nil {
		return c, errors.New("engine: Config.Trace is required")
	}
	if c.Scheme == "" {
		c.Scheme = SchemeIntentional
	}
	if c.MetricT == 0 {
		c.MetricT = DefaultMetricT(c.Trace.Name)
	}
	if c.AvgLifetime == 0 {
		c.AvgLifetime = 7 * 86400
	}
	if c.AvgSizeBits == 0 {
		c.AvgSizeBits = 100e6
	}
	if c.ZipfExponent == 0 {
		c.ZipfExponent = 1
	}
	if c.GenProb == 0 {
		c.GenProb = 0.2
	}
	if c.K == 0 {
		c.K = 8
	}
	if c.BufferMinBits == 0 {
		c.BufferMinBits = 200e6
	}
	if c.BufferMaxBits == 0 {
		c.BufferMaxBits = 600e6
	}
	if c.Response == 0 {
		c.Response = scheme.ResponseSigmoid
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

// DefaultMetricT returns the path-weight horizon T for a trace,
// following Sec. IV-B's per-trace values and its adaptivity rule
// ("different values of T are used adaptively ... to ensure the
// differentiation of the NCL selection metric"): our synthetic Infocom06
// stand-in is denser than the real trace, so its horizon is 15 minutes
// rather than the paper's hour.
func DefaultMetricT(name string) float64 {
	switch trace.Preset(name) {
	case trace.Infocom05:
		return 3600
	case trace.Infocom06:
		return 900
	case trace.MITReality:
		return 7 * 86400
	case trace.UCSD:
		return 3 * 86400
	default:
		return 86400
	}
}

// Scheme names accepted by Factory.
const (
	SchemeIntentional     = "Intentional"
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
// (they only apply to the Intentional scheme).
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
// NCL-metric pipeline per trace instead of one per environment. The
// provider is exact (Epsilon 0), so shared results are bit-identical to
// isolated ones. It keeps the whole refresh grid cached (shared
// retention), since its consumers walk the grid out of lockstep; a run
// without one builds a private provider that keeps only its newest
// snapshot. metricT = 0 picks the trace's default horizon, the same
// rule Config normalization applies.
func SharedKnowledge(tr *trace.Trace, metricT float64) *knowledge.Provider {
	if metricT == 0 {
		metricT = DefaultMetricT(tr.Name)
	}
	return knowledge.NewStreamProvider(knowledge.Params{
		Nodes:   tr.Nodes,
		MetricT: metricT,
	}, func() (trace.ContactSource, error) { return trace.NewSliceSource(tr.Contacts), nil })
}
