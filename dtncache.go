// Package dtncache is a trace-driven simulation library for cooperative
// caching in Disruption Tolerant Networks, reproducing "Supporting
// Cooperative Caching in Disruption Tolerant Networks" (Gao, Cao,
// Iyengar, Srivatsa — ICDCS 2011).
//
// The library bundles everything the paper's evaluation needs:
//
//   - synthetic contact traces calibrated to the paper's Table I, plus a
//     reader for real contact lists (package internal/trace);
//   - a discrete-event DTN simulator with bandwidth-limited contacts
//     (internal/sim);
//   - the network contact graph, opportunistic path weights and the NCL
//     selection metric of Sec. IV (internal/graph, internal/mathx);
//   - the paper's intentional NCL caching scheme (internal/core) and the
//     four comparison schemes NoCache / RandomCache / CacheData /
//     BundleCache (internal/scheme);
//   - experiment harnesses regenerating every table and figure
//     (internal/experiment).
//
// This root package is the stable entry point: it re-exports the types
// and helpers a downstream user needs to run simulations and analyses
// without reaching into internal packages.
//
// # Quick start
//
//	tr, _ := dtncache.GenerateTrace(dtncache.MITReality, 1)
//	rep, _ := dtncache.Run(dtncache.Setup{Trace: tr, K: 8}, dtncache.SchemeIntentional)
//	fmt.Printf("success %.1f%%, delay %.1fh\n", 100*rep.SuccessRatio, rep.MeanDelaySec/3600)
package dtncache

import (
	"io"

	"dtncache/internal/engine"
	"dtncache/internal/experiment"
	"dtncache/internal/knowledge"
	"dtncache/internal/metrics"
	"dtncache/internal/routing"
	"dtncache/internal/scheme"
	"dtncache/internal/trace"
)

// Re-exported core types. The aliases keep one canonical definition in
// the internal packages while giving users a stable import path.
type (
	// Trace is a DTN contact trace.
	Trace = trace.Trace
	// Contact is one opportunistic contact between two nodes.
	Contact = trace.Contact
	// NodeID identifies a node.
	NodeID = trace.NodeID
	// TraceConfig parameterizes the synthetic trace generator.
	TraceConfig = trace.GenConfig
	// RWPConfig parameterizes the random-waypoint mobility generator.
	RWPConfig = trace.RWPConfig
	// Preset names one of the paper's four traces.
	Preset = trace.Preset
	// Setup describes one simulation run: the trace, the scheme, the
	// workload and protocol parameters, and optionally a shared
	// knowledge provider, a contact stream and a recorder. It is the
	// engine's one run config under a stable name; zero values pick the
	// paper's defaults.
	Setup = engine.Config
	// Report is the metric summary of one run.
	Report = metrics.Report
	// Table is a formatted result table for a reproduced figure.
	Table = experiment.Table
	// FigureOptions tunes the figure regenerators.
	FigureOptions = experiment.FigureOptions
	// ResponseMode selects the probabilistic-response strategy of
	// Sec. V-C.
	ResponseMode = scheme.ResponseMode
	// Knowledge is a thread-safe provider of versioned, immutable
	// network-knowledge snapshots (contact rates → opportunistic paths →
	// NCL metrics) that concurrent runs share via Setup.Knowledge.
	Knowledge = knowledge.Provider
	// KnowledgeSnapshot is one immutable knowledge view: path weights
	// and NCL metrics at a build time.
	KnowledgeSnapshot = knowledge.Snapshot
)

// Probabilistic response modes (Sec. V-C).
const (
	// ResponseGlobal replies with probability p_CR(T_q - t0) from full
	// path knowledge.
	ResponseGlobal = scheme.ResponseGlobal
	// ResponseSigmoid replies with the sigmoid probability of Eq. (4).
	ResponseSigmoid = scheme.ResponseSigmoid
	// ResponseAlways always replies (ablation).
	ResponseAlways = scheme.ResponseAlways
)

// The four trace presets of Table I.
const (
	Infocom05  = trace.Infocom05
	Infocom06  = trace.Infocom06
	MITReality = trace.MITReality
	UCSD       = trace.UCSD
)

// Scheme names accepted by Run.
const (
	SchemeIntentional     = engine.SchemeIntentional
	SchemeNoCache         = engine.SchemeNoCache
	SchemeRandomCache     = engine.SchemeRandomCache
	SchemeCacheData       = engine.SchemeCacheData
	SchemeBundleCache     = engine.SchemeBundleCache
	SchemeIntentionalFIFO = engine.SchemeIntentionalFIFO
	SchemeIntentionalLRU  = engine.SchemeIntentionalLRU
	SchemeIntentionalGDS  = engine.SchemeIntentionalGDS
)

// Schemes lists the five data access schemes compared in Fig. 10.
func Schemes() []string { return engine.SchemeNames() }

// ReplacementSchemes lists the Fig. 12 replacement comparison variants.
func ReplacementSchemes() []string { return engine.ReplacementNames() }

// GenerateTrace creates a synthetic contact trace calibrated to the
// given Table I preset.
func GenerateTrace(p Preset, seed int64) (*Trace, error) {
	return trace.GeneratePreset(p, seed)
}

// GenerateCustomTrace creates a synthetic trace from an explicit
// configuration.
func GenerateCustomTrace(cfg TraceConfig) (*Trace, error) {
	tr, _, err := trace.Generate(cfg)
	return tr, err
}

// GenerateRWPTrace creates a contact trace from random-waypoint
// mobility in a square arena — a geometric alternative to the Poisson
// contact model.
func GenerateRWPTrace(cfg RWPConfig) (*Trace, error) {
	return trace.GenerateRWP(cfg)
}

// ReadTrace parses a plain-text contact trace ("a b start end" lines,
// '#' comments with optional metadata header).
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// ReadTraceONE parses connection events in the ONE simulator's
// StandardEventsReader format ("<time> CONN <a> <b> up|down").
func ReadTraceONE(r io.Reader) (*Trace, error) { return trace.ReadONE(r) }

// WriteTrace serializes a trace in the plain-text format.
func WriteTrace(w io.Writer, tr *Trace) error { return trace.Write(w, tr) }

// Run executes one trace-driven simulation of the named scheme and
// returns its metrics.
func Run(s Setup, schemeName string) (Report, error) {
	return experiment.Run(s, schemeName)
}

// RunAveraged repeats Run over consecutive seeds and averages the
// headline metrics.
func RunAveraged(s Setup, schemeName string, repeats int) (Report, error) {
	return experiment.RunAveraged(s, schemeName, repeats)
}

// RunComparison runs every named scheme on the same setup concurrently
// with one shared knowledge pipeline, returning reports in name order;
// each report is bit-identical to an isolated Run.
func RunComparison(s Setup, names []string) ([]Report, error) {
	return experiment.RunComparison(s, names)
}

// SharedKnowledge builds the knowledge provider for a trace that sweep
// cells share via Setup.Knowledge (metricT = 0 picks the trace's
// default horizon).
func SharedKnowledge(tr *Trace, metricT float64) *Knowledge {
	return experiment.SharedKnowledge(tr, metricT)
}

// Routing-substrate re-exports: the canonical DTN unicast forwarding
// strategies (Sec. II's related work) with an evaluation harness.
type (
	// RoutingStrategy is a DTN unicast forwarding strategy.
	RoutingStrategy = routing.Strategy
	// RoutingConfig parameterizes EvaluateRouting.
	RoutingConfig = routing.EvalConfig
	// RoutingResult summarizes one strategy's delivery performance.
	RoutingResult = routing.Result
)

// Canonical routing strategies. NewPRoPHET and GradientStrategy build
// the stateful ones.
var (
	// DirectDelivery hands messages only to their destination.
	DirectDelivery RoutingStrategy = routing.DirectDelivery{}
	// EpidemicRouting floods every contact.
	EpidemicRouting RoutingStrategy = routing.Epidemic{}
	// SprayAndWait is binary spray-and-wait.
	SprayAndWait RoutingStrategy = routing.SprayAndWait{}
)

// NewPRoPHET creates a PRoPHET strategy for an n-node network.
func NewPRoPHET(n int) RoutingStrategy { return routing.NewPRoPHET(n) }

// GradientStrategy builds the paper's relay-metric forwarding from a
// score function (higher = better relay toward dst).
func GradientStrategy(score func(node, dst NodeID) float64) RoutingStrategy {
	return &routing.Gradient{Score: score}
}

// EvaluateRouting replays the trace and reports the strategy's delivery
// ratio, delay and transmission overhead on random unicast messages.
func EvaluateRouting(tr *Trace, s RoutingStrategy, cfg RoutingConfig) (RoutingResult, error) {
	return routing.Evaluate(tr, s, cfg)
}

// NCLMetrics computes the NCL selection metric C_i (Eq. 3) for every
// node of a trace at horizon metricT seconds.
func NCLMetrics(tr *Trace, metricT float64) ([]float64, error) {
	return experiment.NCLMetrics(tr, metricT)
}

// DefaultMetricT returns the paper's (adaptively chosen) path-weight
// horizon for a trace name.
func DefaultMetricT(name string) float64 { return scheme.DefaultMetricT(name) }
