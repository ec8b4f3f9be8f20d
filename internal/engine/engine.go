package engine

import (
	"errors"
	"fmt"
	"sync"

	"dtncache/internal/fault"
	"dtncache/internal/metrics"
	"dtncache/internal/obs"
	"dtncache/internal/scheme"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// Engine is one running simulation behind the imperative API. All
// methods serialize on an internal mutex, so concurrent drivers (HTTP
// handlers publishing and querying while a pacer advances the clock)
// interleave safely — the underlying simulator stays single-threaded
// and deterministic in the order the lock is acquired.
//
//dtn:shared one instance is driven by concurrent server goroutines
type Engine struct {
	mu     sync.Mutex
	cfg    Config
	env    *scheme.Env
	closed bool
}

// New builds a fully wired engine: scheme, workload (materialized in
// batch mode, empty in Live mode), knowledge provider, fault engine
// and obs recorder. The construction runs under the recorder's "build"
// phase span.
func New(cfg Config) (*Engine, error) {
	c, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	doneBuild := c.Obs.Phase("build")
	defer doneBuild()
	factory, err := factoryFor(c)
	if err != nil {
		return nil, err
	}
	var w *workload.Workload
	if c.Live {
		// Service mode: no pre-materialized schedule; Publish and Query
		// inject data/queries at the current virtual time. The config
		// still carries the workload parameters so injected items can
		// default their lifetimes and constraints from T_L.
		w = &workload.Workload{Config: workload.Config{
			Nodes:        c.Trace.Nodes,
			GenProb:      c.GenProb,
			AvgLifetime:  c.AvgLifetime,
			AvgSizeBits:  c.AvgSizeBits,
			ZipfExponent: c.ZipfExponent,
			Start:        c.Trace.Duration / 2,
			End:          c.Trace.Duration,
			Seed:         c.Seed,
		}}
	} else {
		w, err = workload.Generate(workload.Config{
			Nodes:            c.Trace.Nodes,
			GenProb:          c.GenProb,
			AvgLifetime:      c.AvgLifetime,
			AvgSizeBits:      c.AvgSizeBits,
			ZipfExponent:     c.ZipfExponent,
			PerNodeInterests: c.PerNodeInterests,
			Start:            c.Trace.Duration / 2,
			End:              c.Trace.Duration,
			Seed:             c.Seed,
		})
		if err != nil {
			return nil, err
		}
	}
	sc := scheme.DefaultConfig(c.Trace.Duration)
	sc.MetricT = c.MetricT
	sc.NCLCount = c.K
	sc.NCLSelection = c.NCLSelection
	sc.BufferMinBits = c.BufferMinBits
	sc.BufferMaxBits = c.BufferMaxBits
	sc.Response = c.Response
	sc.ProbabilisticSelection = !c.DisableProbabilisticSelection
	sc.PopularityFromFirst = c.PopularityFromFirst
	sc.Fault = c.Fault
	sc.QueryRetrySec = c.QueryRetrySec
	sc.QueryRetryMax = c.QueryRetryMax
	sc.NCLFailover = c.NCLFailover
	sc.PushRetryBudget = c.PushRetryBudget
	sc.CheckInvariants = c.CheckInvariants
	sc.Seed = c.Seed
	sc.Obs = c.Obs
	sc.SpanRetain = c.SpanRetain
	env, err := scheme.NewEnv(c.Trace, w, sc, factory(), c.Knowledge, c.Stream)
	if err != nil {
		return nil, err
	}
	return &Engine{cfg: c, env: env}, nil
}

// ErrClosed reports an operation on a closed engine.
var ErrClosed = errors.New("engine: closed")

// Config returns the normalized configuration the engine was built with.
func (e *Engine) Config() Config {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cfg
}

// Env exposes the underlying simulation environment for diagnostics
// and benchmarks (e.g. the processed-event counter behind the
// events/sec metric). Callers must not drive the environment while
// other goroutines use the engine.
func (e *Engine) Env() *scheme.Env { return e.env }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.env.Sim.Now()
}

// Duration returns the trace duration in seconds (the batch replay
// horizon).
func (e *Engine) Duration() float64 { return e.cfg.Trace.Duration }

// Pending returns the number of queued simulation events, counting
// each batch workload item not yet fed to the event heap as one.
func (e *Engine) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.env.Pending()
}

// Processed returns the cumulative number of dispatched events.
func (e *Engine) Processed() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.env.Sim.Processed()
}

// Advance processes every event with timestamp <= to and moves the
// virtual clock there, returning the number of events dispatched. A
// target at or before the current time is a no-op. Advance never runs
// past `to`, so a pacing driver converts wall time to virtual time and
// calls Advance as often as it likes.
func (e *Engine) Advance(to float64) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, ErrClosed
	}
	return e.env.Sim.RunUntil(to), nil
}

// SpanTree returns a copy of the retained provenance spans of the
// query (emission order) and whether the query is known to the tracer.
// It requires Config.SpanRetain > 0; without a tracer every lookup
// reports unknown.
func (e *Engine) SpanTree(id workload.QueryID) ([]obs.SpanEvent, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.env.Prov.SpanTree(id)
}

// Run replays the remaining trace to its end and returns the final
// metric report — the single batch code path dtnsim and the experiment
// sweeps execute. The replay and the report computation run under obs
// phase spans.
func (e *Engine) Run() (metrics.Report, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return metrics.Report{}, ErrClosed
	}
	return e.env.Run(), nil
}

// PublishSpec describes one live data publish.
type PublishSpec struct {
	// Source is the generating node.
	Source int
	// SizeBits is the item size (Config.AvgSizeBits when 0).
	SizeBits float64
	// LifetimeSec is the item lifetime (Config.AvgLifetime when 0).
	LifetimeSec float64
}

// Publish registers a new data item generated by spec.Source at the
// current virtual time and hands it to the scheme, exactly as a
// batch-workload generation event would. It returns the item with its
// assigned network-wide ID.
func (e *Engine) Publish(spec PublishSpec) (workload.DataItem, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return workload.DataItem{}, ErrClosed
	}
	if spec.SizeBits == 0 {
		spec.SizeBits = e.cfg.AvgSizeBits
	}
	if spec.LifetimeSec == 0 {
		spec.LifetimeSec = e.cfg.AvgLifetime
	}
	return e.env.InjectData(trace.NodeID(spec.Source), spec.SizeBits, spec.LifetimeSec)
}

// QuerySpec describes one live query.
type QuerySpec struct {
	// Requester is the querying node.
	Requester int
	// Data is the requested item's ID.
	Data workload.DataID
	// ConstraintSec is the query time constraint T_q
	// (Config.AvgLifetime/2, the paper's value, when 0).
	ConstraintSec float64
}

// QueryResult reports what happened to a live query.
type QueryResult struct {
	// Query is the registered query (ID assigned by the engine).
	Query workload.Query
	// Issued is false when the requester already held the data, in
	// which case the query never entered the network (and is not
	// counted in the query/issued metrics).
	Issued bool
}

// Query issues a live query from spec.Requester for spec.Data at the
// current virtual time, exactly as a batch-workload query event would:
// a requester that already holds the data does not query the network
// at all (Issued false), otherwise the query is counted, handed to the
// scheme, and entered into the retry chain when retries are
// configured.
func (e *Engine) Query(spec QuerySpec) (QueryResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return QueryResult{}, ErrClosed
	}
	if spec.ConstraintSec == 0 {
		spec.ConstraintSec = e.cfg.AvgLifetime / 2
	}
	q, issued, err := e.env.InjectQuery(trace.NodeID(spec.Requester), spec.Data, spec.ConstraintSec)
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{Query: q, Issued: issued}, nil
}

// IngestContacts feeds live contacts into the running replay at the
// current virtual time — the path a real (non-preset) contact stream
// enters a serving engine by. The batch is validated atomically (a
// rejected batch schedules nothing); accepted contacts already in
// progress are clamped to start now, fully elapsed ones are counted
// stale and skipped, and a contact whose pair is already connected when
// its begin event fires coalesces into the open session. Like every
// other mutating op, the result is a deterministic function of the
// applied op sequence.
func (e *Engine) IngestContacts(cs []trace.Contact) (scheme.IngestResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return scheme.IngestResult{}, ErrClosed
	}
	return e.env.IngestContacts(cs)
}

// Satisfied reports whether the query was answered before its deadline.
func (e *Engine) Satisfied(id workload.QueryID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.env.M.Satisfied(id)
}

// ReplayErr returns the sticky error, if any, the streaming contact
// feed or knowledge feed reported. Always nil for a run over
// Trace.Contacts. A streaming run observing a non-nil ReplayErr saw
// only a prefix of the trace and must be discarded.
func (e *Engine) ReplayErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.env.ReplayErr()
}

// Report computes the metric summary of everything replayed so far.
func (e *Engine) Report() metrics.Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.env.M.Report()
}

// CheckInvariants evaluates the runtime invariant checker against the
// current simulation state (the dtnserved /healthz gate) and returns
// any violations found now, plus every violation collected by the
// periodic sweeps when Config.CheckInvariants is on.
func (e *Engine) CheckInvariants() []fault.Violation {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := fault.Check(e.env, e.env.Sim.Now())
	return append(out, e.env.InvariantViolations()...)
}

// InvariantViolations returns the breaches collected by the periodic
// sweep checker (nil when clean or when CheckInvariants is off).
func (e *Engine) InvariantViolations() []fault.Violation {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.env.InvariantViolations()
}

// Close marks the engine closed — subsequent Publish/Query/Advance
// calls fail with ErrClosed — and flushes the attached obs recorder's
// trace sink. Close is idempotent; the first call's flush error wins.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	return e.cfg.Obs.Close()
}

// String identifies the engine in logs.
func (e *Engine) String() string {
	return fmt.Sprintf("engine(%s on %s)", e.cfg.Scheme, e.cfg.Trace.Name)
}
