package scheme

import (
	"errors"
	"fmt"
	"math"

	"dtncache/internal/fault"
	"dtncache/internal/knowledge"
	"dtncache/internal/obs"
	"dtncache/internal/trace"
)

// NCLStrategy selects how the K central nodes are chosen at the end of
// warm-up. The paper uses the probabilistic metric of Eq. (3); the other
// strategies are ablation baselines quantifying what the metric buys.
type NCLStrategy int

// NCL selection strategies.
const (
	// NCLByMetric selects the top-K nodes by the Eq. (3) metric (the
	// paper's scheme; default).
	NCLByMetric NCLStrategy = iota
	// NCLByDegree selects the K nodes with the most distinct contact
	// peers.
	NCLByDegree
	// NCLByContacts selects the K nodes with the most total contacts.
	NCLByContacts
	// NCLRandom selects K nodes uniformly at random.
	NCLRandom
)

// ResponseMode selects how a caching node decides whether to return data
// to a requester (Sec. V-C).
type ResponseMode int

// Response modes.
const (
	// ResponseGlobal uses the true delivery probability p_CR(T_q - t0)
	// from full opportunistic-path knowledge.
	ResponseGlobal ResponseMode = iota + 1
	// ResponseSigmoid uses Eq. (4), which only needs the remaining time.
	ResponseSigmoid
	// ResponseAlways replies unconditionally (ablation baseline).
	ResponseAlways
)

// Fixed protocol parameters of the paper's evaluation.
const (
	// DefaultScheme names the paper's intentional NCL caching scheme,
	// which a Config with an empty Scheme runs.
	DefaultScheme = "Intentional"
	// QueryBits is the size of a query or control message (80 kb).
	QueryBits = 80e3
	// PMin and PMax parameterize the Eq. (4) response sigmoid (Fig. 7).
	PMin, PMax = 0.45, 0.8
	// sweepsPerTrace sets the housekeeping period to the trace duration
	// over this: each sweep drops expired data and queries and samples
	// the caching overhead.
	sweepsPerTrace = 200
)

// Config describes one simulation run: a trace, the scheme under
// evaluation, the workload parameters of Sec. VI-A and the protocol
// configuration. Zero values pick the paper's defaults (see
// Normalized).
type Config struct {
	// Trace is the contact trace to replay (required).
	Trace *trace.Trace
	// Scheme names the data access scheme (DefaultScheme when empty);
	// internal/engine's Factory resolves it.
	Scheme string
	// Live makes engine.New skip the generated batch workload: data
	// items and queries enter exclusively through Engine.Publish and
	// Engine.Query (the dtnserved service mode). Batch mode (default)
	// materializes the paper's workload up front.
	Live bool
	// MetricT is the time horizon T for path weights and the NCL
	// metric; 0 picks DefaultMetricT of the trace name.
	MetricT float64
	// AvgLifetime is T_L (default 1 week).
	AvgLifetime float64
	// AvgSizeBits is s_avg (default 100 Mb).
	AvgSizeBits float64
	// ZipfExponent is the query exponent s (default 1).
	ZipfExponent float64
	// GenProb is p_G (default 0.2).
	GenProb float64
	// K is the number of central nodes (default 8).
	K int
	// NCLSelection picks the central-node selection strategy
	// (NCLByMetric, the paper's, by default).
	NCLSelection NCLStrategy
	// BufferMinBits/BufferMaxBits bound the uniform per-node buffer
	// capacity (default 200-600 Mb).
	BufferMinBits, BufferMaxBits float64
	// Response selects the probabilistic response mode (default
	// sigmoid, with PMin/PMax).
	Response ResponseMode
	// DisableProbabilisticSelection turns Algorithm 1 off during cache
	// replacement, leaving the pure knapsack of Eq. (7) (ablation).
	DisableProbabilisticSelection bool
	// PopularityFromFirst selects the literal (t_e - t_1) variant of
	// Eq. (6) instead of the remaining-lifetime reading (ablation).
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
	// Fault configures the deterministic fault-injection engine
	// (internal/fault). The zero value installs no engine at all,
	// keeping the replay hot path on its fault-free fast path.
	Fault fault.Config
	// QueryRetrySec > 0 re-issues unsatisfied queries after this
	// timeout with exponential backoff: attempt i+1 waits twice as
	// long as attempt i, for up to QueryRetryMax attempts
	// (DefaultQueryRetryMax when 0). Retries never outlive the query
	// deadline.
	QueryRetrySec float64
	QueryRetryMax int
	// NCLFailover re-targets the intentional scheme's push/pull traffic
	// of a down central node to the next-ranked live node under current
	// knowledge, and re-replicates crash-lost cached items.
	NCLFailover bool
	// PushRetryBudget bounds how many times one holder may re-offer the
	// same pending (data, NCL) push; 0 means unlimited (the pre-fault
	// behavior).
	PushRetryBudget int
	// CheckInvariants runs the internal/fault runtime invariant checker
	// every housekeeping sweep, collecting violations on the Env (tests,
	// dtnsim -invariants and the dtnserved /healthz gate).
	CheckInvariants bool
	// Seed drives workload and protocol randomness (default 1).
	Seed int64
	// RefreshSec is the knowledge-refresh period: contact rates are
	// re-snapshotted and all-pairs paths recomputed (default 1/100 of
	// the trace).
	RefreshSec float64
	// WarmupEnd is when NCL selection happens and data/queries begin
	// (default half the trace).
	WarmupEnd float64
	// Knowledge optionally shares a prebuilt knowledge provider across
	// runs (see engine.SharedKnowledge), so every cell of a sweep reads
	// one contact-rate → paths → metric pipeline. Its Params must be
	// {Trace.Nodes, MetricT}, and it must count the merged contacts of
	// the replayed source. Knowledge is independent of Seed, workload
	// and scheme. nil gives the run a private provider, which keeps
	// only its newest snapshot.
	Knowledge *knowledge.Provider
	// Stream optionally replays contacts from a streaming source instead
	// of Trace.Contacts, so city-scale traces never materialize in
	// memory; nil replays Trace.Contacts through the same path. The
	// opener must return a fresh source positioned at the start on
	// every call — one for the contact driver and one (plus one per
	// rewind) for the private knowledge feed. Trace still supplies the
	// metadata (Name, Nodes, Duration); its Contacts may be empty.
	// Check Env.ReplayErr after the run.
	Stream func() (trace.ContactSource, error)
	// Obs is the observability recorder wired through every layer (nil
	// = off). It never changes results. Metric updates are atomic, so
	// one recorder may be shared across parallel cells — but only a
	// sink-free one: trace encoding reuses one buffer, so a recorder
	// with a trace sink must be confined to a single sequential run.
	Obs *obs.Recorder
	// SpanRetain keeps the provenance span trees of up to this many
	// finished queries in memory for live lookup (Env.Prov.SpanTree,
	// dtnserved's /v1/trace). 0 (the default) retains nothing; spans
	// still stream into the run-trace whenever Obs has a sink. Like
	// Obs, purely observational.
	SpanRetain int
}

// DefaultConfig returns the paper's defaults for a trace of the given
// duration — the table Normalized fills in, less MetricT, which
// depends on the trace name: warm-up for half the trace, 200-600 Mb
// buffers, sigmoid response, K = 8 NCLs, Algorithm 1 enabled.
func DefaultConfig(traceDuration float64) Config {
	return Config{}.withDefaults(traceDuration)
}

// Normalized returns the config with every zero-valued knob replaced
// by its paper default, validated — the exact value set a run is built
// from. Drivers that derive per-run state from the config (shared
// knowledge pipelines, manifests) normalize first so they see what will
// run. Normalization is idempotent.
func (c Config) Normalized() (Config, error) {
	if c.Trace == nil {
		return c, errors.New("scheme: Config.Trace is required")
	}
	if c.MetricT == 0 {
		c.MetricT = DefaultMetricT(c.Trace.Name)
	}
	c = c.withDefaults(c.Trace.Duration)
	return c, c.Validate()
}

func (c Config) withDefaults(traceDuration float64) Config {
	if c.Scheme == "" {
		c.Scheme = DefaultScheme
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
		c.Response = ResponseSigmoid
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RefreshSec == 0 {
		c.RefreshSec = traceDuration / 100
	}
	if c.WarmupEnd == 0 {
		c.WarmupEnd = traceDuration / 2
	}
	return c
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

// Validate checks a normalized configuration: the protocol knobs, the
// workload parameters (in Live mode too, where no workload is
// generated up front) and the fault parameters.
func (c Config) Validate() error {
	if c.Trace == nil {
		return errors.New("scheme: Config.Trace is required")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MetricT", c.MetricT}, {"AvgLifetime", c.AvgLifetime}, {"AvgSizeBits", c.AvgSizeBits},
		{"ZipfExponent", c.ZipfExponent}, {"GenProb", c.GenProb},
		{"BufferMinBits", c.BufferMinBits}, {"BufferMaxBits", c.BufferMaxBits},
		{"UtilityFloor", c.UtilityFloor}, {"QueryRetrySec", c.QueryRetrySec},
		{"RefreshSec", c.RefreshSec}, {"WarmupEnd", c.WarmupEnd},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("scheme: %s must be finite, got %v", f.name, f.v)
		}
	}
	switch {
	case c.MetricT <= 0:
		return errors.New("scheme: MetricT must be positive")
	case c.AvgLifetime <= 0:
		return errors.New("scheme: AvgLifetime must be positive")
	case c.AvgSizeBits <= 0:
		return errors.New("scheme: AvgSizeBits must be positive")
	case c.ZipfExponent < 0:
		return errors.New("scheme: ZipfExponent must be >= 0")
	case c.GenProb < 0 || c.GenProb > 1:
		return errors.New("scheme: GenProb must be in [0,1]")
	case c.RefreshSec <= 0:
		return errors.New("scheme: RefreshSec must be positive")
	case c.WarmupEnd < 0 || c.WarmupEnd >= c.Trace.Duration:
		return errors.New("scheme: WarmupEnd must be in [0, trace duration)")
	case c.Response < ResponseGlobal || c.Response > ResponseAlways:
		return errors.New("scheme: unknown response mode")
	case c.K < 0:
		return errors.New("scheme: K must be >= 0")
	case c.BufferMinBits <= 0 || c.BufferMaxBits < c.BufferMinBits:
		return errors.New("scheme: buffer bounds must satisfy 0 < min <= max")
	case c.UtilityFloor < 0:
		return errors.New("scheme: UtilityFloor must be >= 0")
	case c.QuerySprayCopies < 0:
		return errors.New("scheme: QuerySprayCopies must be >= 0")
	case c.QueryRetrySec < 0:
		return errors.New("scheme: QueryRetrySec must be >= 0")
	case c.QueryRetryMax < 0:
		return errors.New("scheme: QueryRetryMax must be >= 0")
	case c.PushRetryBudget < 0:
		return errors.New("scheme: PushRetryBudget must be >= 0")
	case c.SpanRetain < 0:
		return errors.New("scheme: SpanRetain must be >= 0")
	}
	return c.Fault.Validate()
}
