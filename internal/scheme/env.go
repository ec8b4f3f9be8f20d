// Package scheme hosts the protocol environment shared by every data
// access scheme in the evaluation (Sec. VI) and the four comparison
// baselines: NoCache, RandomCache, CacheData [29] and BundleCache [23].
// The paper's intentional NCL caching scheme itself lives in
// internal/core and plugs into the same environment.
//
// The environment owns everything a DTN data-access protocol needs:
// per-node buffers, the online contact-rate estimator, periodically
// refreshed opportunistic-path knowledge, the workload schedule, and
// metric collection. Schemes only implement reactions to data
// generation, queries and contacts.
//
//dtn:determinism
package scheme

import (
	"errors"
	"fmt"
	"math"

	"dtncache/internal/buffer"
	"dtncache/internal/fault"
	"dtncache/internal/graph"
	"dtncache/internal/knowledge"
	"dtncache/internal/mathx"
	"dtncache/internal/metrics"
	"dtncache/internal/obs"
	"dtncache/internal/provenance"
	"dtncache/internal/sim"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
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

// Config carries every tunable of a simulation run.
type Config struct {
	// MetricT is the time horizon T for path weights and the NCL metric
	// (Sec. IV-B uses 1h for Infocom, 1 week for Reality, 3 days for
	// UCSD).
	MetricT float64
	// MaxHops caps opportunistic path length (graph.DefaultMaxHops if 0).
	MaxHops int
	// RefreshSec is the knowledge-refresh period: contact rates are
	// re-snapshotted and all-pairs paths recomputed.
	RefreshSec float64
	// SweepSec is the housekeeping period: expired data and queries are
	// dropped and caching-overhead samples taken.
	SweepSec float64
	// QueryBits is the size of a query/control message (default 80 kb).
	QueryBits float64
	// Response selects the probabilistic response mode; PMin/PMax
	// parameterize the sigmoid (defaults 0.45/0.8 as in Fig. 7).
	Response   ResponseMode
	PMin, PMax float64
	// NCLCount is K, the number of central nodes (intentional scheme).
	NCLCount int
	// NCLSelection picks the central-node selection strategy
	// (NCLByMetric, the paper's, by default).
	NCLSelection NCLStrategy
	// QuantBits is the knapsack size quantum (default 5 Mb).
	QuantBits float64
	// BufferMinBits/BufferMaxBits bound the uniform per-node buffer
	// capacity (paper: 200-600 Mb).
	BufferMinBits, BufferMaxBits float64
	// WarmupEnd is when NCL selection happens and data/queries begin
	// (paper: half the trace).
	WarmupEnd float64
	// ProbabilisticSelection toggles Algorithm 1 during cache
	// replacement; off means the pure knapsack of Eq. (7) (ablation).
	ProbabilisticSelection bool
	// PopularityFromFirst selects the literal (t_e - t_1) variant of
	// Eq. (6) instead of the remaining-lifetime reading (ablation).
	PopularityFromFirst bool
	// Bandwidth is the contact link bandwidth (sim.DefaultBandwidth if 0).
	Bandwidth float64
	// Fault configures the deterministic fault-injection engine
	// (internal/fault). The zero value installs no engine at all,
	// keeping the replay hot path on its fault-free fast path.
	Fault fault.Config
	// QueryRetrySec > 0 re-issues unsatisfied queries after this
	// timeout with exponential backoff: attempt i+1 waits twice as
	// long as attempt i, for up to
	// QueryRetryMax attempts (3 when 0). Retries never outlive the
	// query deadline.
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
	// every SweepSec, collecting violations on the Env.
	CheckInvariants bool
	// Seed drives all run randomness (coin flips, buffer sizes).
	Seed int64
	// Obs is the observability recorder wired through every layer of the
	// environment (nil = instrumentation off, the default). It is
	// read-only with respect to simulation behavior: attaching a
	// recorder never changes results. Excluded from config digests —
	// callers must zero it before hashing (see obs.ConfigDigest).
	Obs *obs.Recorder
	// SpanRetain keeps the provenance span trees of up to this many
	// finished queries in memory for live lookup (Env.Prov.SpanTree).
	// 0 (the default) retains nothing; spans still stream into the
	// run-trace whenever Obs has a sink. Like Obs, purely
	// observational: it never changes simulation results.
	SpanRetain int
}

// DefaultConfig returns the paper's default parameters for a trace of
// the given duration: warm-up for half the trace, 200-600 Mb buffers,
// sigmoid response with p_min 0.45 / p_max 0.8, K = 8 NCLs, Algorithm 1
// enabled.
func DefaultConfig(traceDuration float64) Config {
	return Config{
		MetricT:                7 * 86400,
		MaxHops:                graph.DefaultMaxHops,
		RefreshSec:             traceDuration / 100,
		SweepSec:               traceDuration / 200,
		QueryBits:              80e3,
		Response:               ResponseSigmoid,
		PMin:                   0.45,
		PMax:                   0.8,
		NCLCount:               8,
		QuantBits:              5e6,
		BufferMinBits:          200e6,
		BufferMaxBits:          600e6,
		WarmupEnd:              traceDuration / 2,
		ProbabilisticSelection: true,
		Seed:                   1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.MetricT <= 0:
		return errors.New("scheme: MetricT must be positive")
	case c.RefreshSec <= 0 || c.SweepSec <= 0:
		return errors.New("scheme: refresh and sweep periods must be positive")
	case c.QueryBits < 0:
		return errors.New("scheme: QueryBits must be >= 0")
	case c.Response < ResponseGlobal || c.Response > ResponseAlways:
		return errors.New("scheme: unknown response mode")
	case c.NCLCount < 0:
		return errors.New("scheme: NCLCount must be >= 0")
	case c.QuantBits <= 0:
		return errors.New("scheme: QuantBits must be positive")
	case c.BufferMinBits <= 0 || c.BufferMaxBits < c.BufferMinBits:
		return errors.New("scheme: buffer bounds must satisfy 0 < min <= max")
	case c.MaxHops < 0:
		return errors.New("scheme: MaxHops must be >= 0 (0 selects the default)")
	case c.WarmupEnd < 0:
		return errors.New("scheme: WarmupEnd must be >= 0")
	case c.QueryRetrySec < 0:
		return errors.New("scheme: QueryRetrySec must be >= 0")
	case c.QueryRetryMax < 0:
		return errors.New("scheme: QueryRetryMax must be >= 0")
	case c.PushRetryBudget < 0:
		return errors.New("scheme: PushRetryBudget must be >= 0")
	case c.SpanRetain < 0:
		return errors.New("scheme: SpanRetain must be >= 0")
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	if c.Response == ResponseSigmoid {
		if !(c.PMax > 0 && c.PMax <= 1) || !(c.PMin > c.PMax/2 && c.PMin < c.PMax) {
			return errors.New("scheme: sigmoid needs 0 < pmax <= 1 and pmax/2 < pmin < pmax")
		}
	}
	return nil
}

// Scheme is one data access protocol under evaluation.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// Init is called once, after the Env is fully constructed and before
	// the simulation starts.
	Init(e *Env) error
	// OnData fires when a node generates a new data item (the item is
	// already registered as the source's own data).
	OnData(item workload.DataItem)
	// OnQuery fires when a node issues a query (already counted).
	OnQuery(q workload.Query)
	// OnContactStart fires for every contact; schemes enqueue transfers.
	OnContactStart(s *sim.Session)
	// OnContactEnd fires when a contact closes.
	OnContactEnd(s *sim.Session)
	// OnSweep fires every Config.SweepSec for housekeeping.
	OnSweep(now float64)
}

// Env is the shared simulation environment.
type Env struct {
	Cfg     Config
	Sim     *sim.Simulator
	Driver  *sim.Driver
	Trace   *trace.Trace
	W       *workload.Workload
	N       int
	Buffers []*buffer.Buffer
	M       *metrics.Collector
	Rng     *mathx.Rand
	// Obs is the run's recorder (nil when observability is off); all
	// obs methods are nil-safe, so schemes use it unconditionally.
	Obs *obs.Recorder
	// Prov is the provenance span tracer, nil unless the recorder has a
	// trace sink or Config.SpanRetain > 0; all its methods are nil-safe,
	// so instrumentation sites call it unconditionally.
	Prov *provenance.Tracer

	scheme Scheme
	sig    *mathx.ResponseSigmoid

	// Cached obs metrics (nil when Obs is nil) and the per-query
	// expiry-reported marks of the sweep scan.
	cQIssued    *obs.Counter
	cQAnswered  *obs.Counter
	cQExpired   *obs.Counter
	cQRetries   *obs.Counter
	cCIngested  *obs.Counter
	cCClamped   *obs.Counter
	cCStale     *obs.Counter
	hQueryDelay *obs.Histogram
	expiredSeen []bool

	// faults is the installed fault engine (nil on the fault-free fast
	// path); effNCLs caches the failover-adjusted NCL targets, keyed by
	// engine version and knowledge snapshot.
	faults     *fault.Engine
	effNCLs    []trace.NodeID
	effVersion uint64
	effSnap    *knowledge.Snapshot

	// Invariant-checker state (CheckInvariants only).
	respSeen     map[uint64]bool
	dupResponses int
	violations   []fault.Violation

	// knowledge: a provider (owned, or shared across schemes through
	// NewEnv's kb) and the immutable snapshot of the latest refresh.
	kb   *knowledge.Provider
	snap *knowledge.Snapshot
	ncls []trace.NodeID
	// met[n] counts the contacts node n has taken part in so far, the
	// NCLByContacts score.
	met []int

	// copyScratch is the per-sweep copy-count scratch of sampleCaching,
	// indexed by DataID and reused across sweeps.
	copyScratch []int

	// ownData[n] holds items generated by node n (sources always retain
	// their own live data, outside the caching buffer).
	ownData []map[workload.DataID]workload.DataItem

	// feed is the lazy batch-workload feeder.
	feed workloadFeed
}

// KnowledgeParams returns the knowledge pipeline configuration an Env
// with this Config over nodes nodes requires: exact mode (Epsilon 0),
// so every snapshot is bit-identical to a full recompute. A shared
// provider must have exactly these Params.
func (c Config) KnowledgeParams(nodes int) knowledge.Params {
	return knowledge.Params{
		Nodes:   nodes,
		MetricT: c.MetricT,
		MaxHops: c.MaxHops,
	}
}

// NewEnv wires a full simulation: trace replay, workload schedule,
// knowledge refresh, housekeeping, and the scheme's hooks.
//
// Contacts come from open, which must return a fresh source positioned
// at the start on every call: it is called once for the driver's
// replay feed and once for the private knowledge provider's counting
// feed (plus once more per out-of-order knowledge rewind). A nil open
// replays tr.Contacts; otherwise tr.Contacts may be empty and tr only
// carries the metadata (Name, Nodes, Duration). After Run, check
// ReplayErr before trusting the results.
//
// kb optionally shares a knowledge provider across environments, so
// every scheme of a comparison reads one contact-rate → paths → metric
// pipeline instead of rebuilding it. A nil kb gives the environment a
// private provider, which keeps only its newest snapshot. A shared kb
// must have Params equal to the config's and count the same contacts
// this Env's rate estimator observes: the merged contacts of the
// replayed source, as knowledge.NewStreamProvider over the same opener
// counts them.
func NewEnv(tr *trace.Trace, w *workload.Workload, cfg Config, s Scheme, kb *knowledge.Provider, open func() (trace.ContactSource, error)) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if w.Config.Nodes != tr.Nodes {
		return nil, errors.New("scheme: workload and trace node counts differ")
	}
	e := &Env{
		Cfg:     cfg,
		Sim:     sim.New(),
		Trace:   tr,
		W:       w,
		N:       tr.Nodes,
		M:       metrics.NewCollector(),
		Rng:     mathx.NewRand(cfg.Seed),
		Obs:     cfg.Obs,
		scheme:  s,
		ownData: make([]map[workload.DataID]workload.DataItem, tr.Nodes),
		met:     make([]int, tr.Nodes),
	}
	e.Sim.SetRecorder(cfg.Obs)
	if cfg.Obs.TraceEnabled() || cfg.SpanRetain > 0 {
		e.Prov = provenance.NewTracer(cfg.Obs, cfg.Seed, cfg.SpanRetain)
	}
	e.cQIssued = cfg.Obs.Counter("query", "issued")
	e.cQAnswered = cfg.Obs.Counter("query", "answered")
	e.cQExpired = cfg.Obs.Counter("query", "expired")
	e.cQRetries = cfg.Obs.Counter("query", "retries")
	e.cCIngested = cfg.Obs.Counter("contact", "ingested")
	e.cCClamped = cfg.Obs.Counter("contact", "ingest_clamped")
	e.cCStale = cfg.Obs.Counter("contact", "ingest_stale")
	e.hQueryDelay = cfg.Obs.Histogram("query", "delay_seconds", QueryDelayBounds)
	bufRng := e.Rng.Derive("buffers")
	e.Buffers = make([]*buffer.Buffer, e.N)
	for i := range e.Buffers {
		e.Buffers[i] = buffer.New(bufRng.Uniform(cfg.BufferMinBits, cfg.BufferMaxBits))
		e.Buffers[i].SetRecorder(cfg.Obs)
		e.ownData[i] = make(map[workload.DataID]workload.DataItem)
	}
	opts := []sim.DriverOption{}
	if cfg.Bandwidth > 0 {
		opts = append(opts, sim.WithBandwidth(cfg.Bandwidth))
	}
	if !cfg.Fault.Zero() {
		eng, err := fault.NewEngine(e.Sim, e.N, cfg.Fault, e.Rng.Derive)
		if err != nil {
			return nil, err
		}
		e.faults = eng
		opts = append(opts, sim.WithFaults(eng))
	}
	if cfg.Obs != nil {
		opts = append(opts, sim.WithRecorder(cfg.Obs))
	}
	e.Driver = sim.NewDriver(e.Sim, e, opts...)
	if e.faults != nil {
		e.faults.Bind(e.Driver, cfg.Obs)
		e.faults.OnDown = e.nodeDown
		e.faults.OnUp = e.nodeUp
		e.faults.RankedNodes = e.rankedNodes
	}
	if open == nil {
		open = func() (trace.ContactSource, error) { return trace.NewSliceSource(tr.Contacts), nil }
	}
	src, err := open()
	if err != nil {
		return nil, err
	}
	if err := e.Driver.LoadStream(src); err != nil {
		return nil, err
	}
	if kb == nil {
		kb = knowledge.NewPrivateStreamProvider(cfg.KnowledgeParams(e.N), open)
		// The provider is private to this Env, so its metrics belong to
		// this run; shared providers stay recorder-free (see
		// Provider.SetRecorder).
		kb.SetRecorder(cfg.Obs)
	} else if kb.Params() != cfg.KnowledgeParams(e.N).Normalized() {
		return nil, fmt.Errorf("scheme: shared knowledge provider params %+v do not match config %+v",
			kb.Params(), cfg.KnowledgeParams(e.N).Normalized())
	}
	e.kb = kb
	// Empty knowledge until the first refresh.
	e.snap = e.kb.Empty()

	if cfg.Response == ResponseSigmoid {
		tq := w.Config.AvgLifetime / 2
		sig, err := mathx.NewResponseSigmoid(cfg.PMin, cfg.PMax, tq)
		if err != nil {
			return nil, err
		}
		e.sig = sig
	}
	// Maintenance first: the knowledge refresh (and NCL selection) at
	// WarmupEnd must fire before workload events scheduled at the same
	// instant.
	if err := e.scheduleMaintenance(); err != nil {
		return nil, err
	}
	if err := e.scheduleWorkload(); err != nil {
		return nil, err
	}
	if err := s.Init(e); err != nil {
		return nil, fmt.Errorf("scheme %s init: %w", s.Name(), err)
	}
	return e, nil
}

// QueryDelayBounds buckets query access delays (seconds), spanning the
// minutes-to-days range DTN deliveries land in.
var QueryDelayBounds = []float64{60, 300, 900, 3600, 4 * 3600, 12 * 3600, 86400, 3 * 86400}

// ReplayErr returns the sticky streaming error, if any: a truncated or
// corrupt contact source seen by the replay feed or the knowledge feed.
// Always nil for a run over tr.Contacts. A run with a non-nil ReplayErr
// replayed only a prefix of the trace; discard its results.
func (e *Env) ReplayErr() error {
	if err := e.Driver.FeedErr(); err != nil {
		return err
	}
	return e.kb.StreamErr()
}

// Run executes the simulation to the end of the trace and returns the
// metric report. The replay and the report computation run under obs
// phase spans.
func (e *Env) Run() metrics.Report {
	doneReplay := e.Obs.Phase("replay")
	e.Sim.RunUntil(e.Trace.Duration)
	doneReplay()
	doneReport := e.Obs.Phase("report")
	rep := e.M.Report()
	doneReport()
	return rep
}

// --- sim.Handler ---

// ContactStart implements sim.Handler.
func (e *Env) ContactStart(s *sim.Session) {
	if a, b := s.A, s.B; a != b && a >= 0 && b >= 0 && int(a) < e.N && int(b) < e.N {
		e.met[a]++
		e.met[b]++
	}
	e.scheme.OnContactStart(s)
}

// ContactEnd implements sim.Handler.
func (e *Env) ContactEnd(s *sim.Session) { e.scheme.OnContactEnd(s) }

// --- workload & maintenance scheduling ---

// workloadFeed feeds the batch workload into the event heap lazily,
// the way sim.Driver.LoadStream feeds contacts: one workload event is
// pending at a time, so the heap holds only the live set. Item k of
// the preload order (data items, then queries) dispatches under the
// sequence number base+k reserved at NewEnv, so equal-time ties
// resolve exactly as a bulk preload did. The schedule is frozen at
// NewEnv: live InjectData/InjectQuery extend W.Data/W.Queries and run
// at once, and the feed never sees them.
type workloadFeed struct {
	e       *Env
	data    []workload.DataItem
	queries []workload.Query
	// di and qi count the items pushed so far; pending is the k of the
	// item the pending event will run.
	di, qi  int
	base    uint64
	pending int
	fn      func()
}

// scheduleWorkload reserves the batch workload's sequence numbers and
// pushes its first event.
func (e *Env) scheduleWorkload() error {
	if err := e.W.SortedCheck(); err != nil {
		return err
	}
	f := &e.feed
	*f = workloadFeed{e: e, data: e.W.Data, queries: e.W.Queries}
	f.base = e.Sim.Reserve(len(f.data) + len(f.queries))
	f.fn = f.step
	return f.scheduleNext()
}

// scheduleNext pushes the earlier of the next data item and the next
// query; a data item wins a tie, as its sequence number is lower.
//
//dtn:allocfree the workload feeder path; the event reuses the bound fn
func (f *workloadFeed) scheduleNext() error {
	var at float64
	switch {
	case f.di < len(f.data) && (f.qi == len(f.queries) || f.data[f.di].Created <= f.queries[f.qi].Issued):
		f.pending, at = f.di, f.data[f.di].Created
		f.di++
	case f.qi < len(f.queries):
		f.pending, at = len(f.data)+f.qi, f.queries[f.qi].Issued
		f.qi++
	default:
		return nil
	}
	return f.e.Sim.ScheduleSeq(at, f.base+uint64(f.pending), f.fn)
}

// step is the pending workload event; like Driver.feedStep it chains
// the next item before running the current one.
//
//dtn:allocfree the per-item feeder step; the handlers it calls are trusted
func (f *workloadFeed) step() {
	k := f.pending
	// Sorted schedules never reach into the past, so this cannot fail.
	_ = f.scheduleNext()
	if k < len(f.data) {
		f.e.deliverData(f.data[k])
	} else {
		f.e.issueQuery(f.queries[k-len(f.data)])
	}
}

// Pending returns the number of queued events, counting every batch
// workload item the lazy feed has not pushed yet as one event, as a
// bulk preload would have.
func (e *Env) Pending() int {
	f := &e.feed
	return e.Sim.Pending() + len(f.data) - f.di + len(f.queries) - f.qi
}

// deliverData registers a generated item as the source's own data and
// hands it to the scheme — the body of every data-generation event,
// batch-scheduled or live-injected.
func (e *Env) deliverData(item workload.DataItem) {
	e.ownData[item.Source][item.ID] = item
	e.scheme.OnData(item)
}

// issueQuery runs one query event and reports whether the query
// actually entered the network: a requester that already holds the
// data would not query the network at all.
func (e *Env) issueQuery(q workload.Query) bool {
	if e.Buffers[q.Requester].Has(q.Data) {
		return false
	}
	e.M.QueryIssued(q)
	e.cQIssued.Inc()
	e.Obs.QueryIssued(e.Sim.Now(), int32(q.Requester), int64(q.ID), int64(q.Data))
	e.Prov.QueryIssued(q)
	e.scheme.OnQuery(q)
	if e.Cfg.QueryRetrySec > 0 {
		e.scheduleQueryRetry(q, 1, e.Cfg.QueryRetrySec)
	}
	return true
}

// answerQuery records the delivery of q's data to its requester at
// time at: the first on-time delivery counts the query answered in the
// metrics, the obs counter and delay histogram, and the run-trace. It
// reports whether this delivery was that first one.
func (e *Env) answerQuery(q workload.Query, at float64) bool {
	if !e.M.QueryDelivered(q.ID, at) {
		return false
	}
	e.cQAnswered.Inc()
	e.hQueryDelay.Observe(at - q.Issued)
	e.Obs.QueryAnswered(at, int32(q.Requester), int64(q.ID), at-q.Issued)
	return true
}

// InjectData appends a live-published data item to the workload at the
// current virtual time and runs the same generation event the batch
// schedule would have: the item becomes the source's own data and the
// scheme reacts to it. IDs stay dense in creation order.
func (e *Env) InjectData(source trace.NodeID, sizeBits, lifetimeSec float64) (workload.DataItem, error) {
	if source < 0 || int(source) >= e.N {
		return workload.DataItem{}, fmt.Errorf("scheme: source node %d outside [0,%d)", source, e.N)
	}
	if sizeBits <= 0 {
		return workload.DataItem{}, errors.New("scheme: data size must be positive")
	}
	if lifetimeSec <= 0 {
		return workload.DataItem{}, errors.New("scheme: data lifetime must be positive")
	}
	now := e.Sim.Now()
	item := workload.DataItem{
		ID:       workload.DataID(len(e.W.Data)),
		Source:   source,
		SizeBits: sizeBits,
		Created:  now,
		Expires:  now + lifetimeSec,
	}
	e.W.Data = append(e.W.Data, item)
	e.deliverData(item)
	return item, nil
}

// InjectQuery appends a live query to the workload at the current
// virtual time and runs the same query event the batch schedule would
// have. issued is false when the requester already held the data (the
// query never entered the network and is not counted).
func (e *Env) InjectQuery(requester trace.NodeID, id workload.DataID, constraintSec float64) (q workload.Query, issued bool, err error) {
	if requester < 0 || int(requester) >= e.N {
		return q, false, fmt.Errorf("scheme: requester node %d outside [0,%d)", requester, e.N)
	}
	if id < 0 || int(id) >= len(e.W.Data) {
		return q, false, fmt.Errorf("scheme: unknown data ID %d", id)
	}
	if !(constraintSec > 0) || math.IsInf(constraintSec, 1) {
		return q, false, errors.New("scheme: query time constraint must be positive and finite")
	}
	now := e.Sim.Now()
	q = workload.Query{
		ID:        workload.QueryID(len(e.W.Queries)),
		Requester: requester,
		Data:      id,
		Issued:    now,
		Deadline:  now + constraintSec,
	}
	e.W.Queries = append(e.W.Queries, q)
	return q, e.issueQuery(q), nil
}

// IngestResult summarizes one live contact-ingest batch: Scheduled
// contacts entered the event heap, Clamped ones had a start in the past
// moved up to the current virtual time, Stale ones had already ended
// and were skipped.
type IngestResult struct {
	Scheduled int
	Clamped   int
	Stale     int
}

// IngestContacts feeds live contacts into the replay at the current
// virtual time — the path a real (non-preset) contact stream enters the
// engine by. The whole batch is validated first against the shared
// trace.CheckContact rules plus the trace window (end must not pass the
// trace duration), so a rejected batch schedules nothing. Accepted
// contacts whose start is already in the past are clamped to now;
// contacts that have entirely ended are counted stale and skipped. The
// outcome is a deterministic function of the applied op sequence, which
// is what lets a write-ahead log replay ingests bit-identically.
func (e *Env) IngestContacts(cs []trace.Contact) (IngestResult, error) {
	for i, c := range cs {
		if err := trace.CheckContact(e.N, c); err != nil {
			return IngestResult{}, fmt.Errorf("scheme: ingest contact %d: %w", i, err)
		}
		if c.End > e.Trace.Duration {
			return IngestResult{}, fmt.Errorf("scheme: ingest contact %d: contact end %g after trace duration %g", i, c.End, e.Trace.Duration)
		}
	}
	var res IngestResult
	now := e.Sim.Now()
	for _, c := range cs {
		if c.End <= now {
			res.Stale++
			continue
		}
		if c.Start < now {
			c.Start = now
			res.Clamped++
		}
		if err := e.Driver.InjectContact(c); err != nil {
			return res, err
		}
		res.Scheduled++
	}
	e.cCIngested.Add(uint64(res.Scheduled))
	e.cCClamped.Add(uint64(res.Clamped))
	e.cCStale.Add(uint64(res.Stale))
	return res, nil
}

func (e *Env) scheduleMaintenance() error {
	// Knowledge refreshes start at the end of warm-up (NCL selection
	// happens then) and repeat every RefreshSec.
	if _, err := e.Sim.Every(e.Cfg.WarmupEnd, e.Cfg.RefreshSec, e.refreshKnowledge); err != nil {
		return err
	}
	if _, err := e.Sim.Every(e.Cfg.WarmupEnd+e.Cfg.SweepSec, e.Cfg.SweepSec, e.sweep); err != nil {
		return err
	}
	if e.Cfg.CheckInvariants {
		if _, err := e.Sim.Every(e.Cfg.SweepSec, e.Cfg.SweepSec, e.checkInvariants); err != nil {
			return err
		}
	}
	return nil
}

func (e *Env) refreshKnowledge() {
	now := e.Sim.Now()
	e.snap = e.kb.At(now)
	e.Obs.Knowledge(now, int64(e.snap.Version()), float64(e.snap.ReusedSources()))
	if e.ncls == nil && e.Cfg.NCLCount > 0 {
		// One-time NCL selection at the end of warm-up; the paper keeps
		// the selected NCLs fixed during data access (Sec. IV-A).
		e.ncls = e.selectNCLs()
	}
}

func (e *Env) sweep() {
	now := e.Sim.Now()
	for n := range e.Buffers {
		e.Buffers[n].DropExpired(now)
		for id, item := range e.ownData[n] {
			if item.Expired(now) {
				delete(e.ownData[n], id)
			}
		}
	}
	e.scheme.OnSweep(now)
	e.sampleCaching(now)
	e.scanExpiredQueries(now)
	e.Prov.Sweep(now)
}

// scanExpiredQueries emits a query-expired event for every registered,
// unsatisfied query whose deadline has passed, once each. Purely
// observational (and skipped entirely without a recorder): it reads the
// collector, never writes it.
func (e *Env) scanExpiredQueries(now float64) {
	if e.Obs == nil {
		return
	}
	if len(e.expiredSeen) < len(e.W.Queries) {
		// Sized to the workload, regrown when live injections extend it
		// after the first sweep.
		grown := make([]bool, len(e.W.Queries))
		copy(grown, e.expiredSeen)
		e.expiredSeen = grown
	}
	for i := range e.W.Queries {
		q := &e.W.Queries[i]
		if e.expiredSeen[i] || q.Deadline > now {
			continue
		}
		if e.M.Satisfied(q.ID) {
			e.expiredSeen[i] = true
			continue
		}
		if !e.M.Registered(q.ID) {
			// Never issued (requester already held the data); nothing to
			// expire, but mark it so later sweeps skip the slot.
			e.expiredSeen[i] = true
			continue
		}
		e.expiredSeen[i] = true
		e.cQExpired.Inc()
		e.Obs.QueryExpired(now, int32(q.Requester), int64(q.ID))
	}
}

// sampleCaching records the caching overhead: average number of cached
// copies per live data item, plus buffer occupancy.
func (e *Env) sampleCaching(now float64) {
	if len(e.copyScratch) < len(e.W.Data) {
		e.copyScratch = make([]int, len(e.W.Data))
	}
	copies := e.copyScratch
	for i := range copies {
		copies[i] = 0
	}
	var used, capacity float64
	for _, b := range e.Buffers {
		used += b.Used()
		capacity += b.Capacity()
		for _, en := range b.Entries() {
			if !en.Data.Expired(now) && int(en.Data.ID) < len(copies) {
				copies[en.Data.ID]++
			}
		}
	}
	live := 0
	total := 0
	for _, d := range e.W.Data {
		if d.Live(now) {
			live++
			total += copies[d.ID]
		}
	}
	if live > 0 {
		e.M.SampleCopies(float64(total) / float64(live))
	}
	if capacity > 0 {
		e.M.SampleBufferUse(used / capacity)
	}
}

// --- knowledge & helpers for schemes ---

// selectNCLs ranks nodes per the configured strategy and returns the
// top K.
func (e *Env) selectNCLs() []trace.NodeID {
	scores := make([]float64, e.N)
	switch e.Cfg.NCLSelection {
	case NCLByDegree:
		for n := 0; n < e.N; n++ {
			scores[n] = float64(len(e.snap.Graph().Neighbors(trace.NodeID(n))))
		}
	case NCLByContacts:
		for n, c := range e.met {
			scores[n] = float64(c)
		}
	case NCLRandom:
		rng := e.Rng.Derive("ncl-random")
		for n, p := range rng.Perm(e.N) {
			scores[n] = float64(p)
		}
	default: // NCLByMetric, the paper's Eq. (3)
		scores = e.snap.Metrics()
	}
	return graph.SelectNCLs(scores, e.Cfg.NCLCount)
}

// Knowledge returns the immutable knowledge snapshot of the latest
// refresh (the version-0 empty snapshot before warm-up ends). Schemes
// must never mutate it: in a comparison the same value is shared.
func (e *Env) Knowledge() *knowledge.Snapshot { return e.snap }

// NCLs returns the selected central nodes (nil before warm-up ends or
// when NCLCount is 0), ordered by descending metric.
func (e *Env) NCLs() []trace.NodeID { return e.ncls }

// Weight returns the opportunistic-path weight p_ab(t) under current
// knowledge.
func (e *Env) Weight(a, b trace.NodeID, t float64) float64 {
	return e.snap.Weight(a, b, t)
}

// MetricWeight is Weight evaluated at the configured horizon T; it is
// the relay-selection metric for gradient forwarding, answered from the
// snapshot's precomputed weight matrix.
func (e *Env) MetricWeight(a, b trace.NodeID) float64 {
	return e.snap.MetricWeight(a, b)
}

// OwnData returns the item if node n generated it and it is still live.
func (e *Env) OwnData(n trace.NodeID, id workload.DataID) (workload.DataItem, bool) {
	item, ok := e.ownData[n][id]
	if !ok || item.Expired(e.Sim.Now()) {
		return workload.DataItem{}, false
	}
	return item, true
}

// HasData reports whether node n can serve data id right now, either
// from its caching buffer or as the original source.
func (e *Env) HasData(n trace.NodeID, id workload.DataID) bool {
	if en := e.Buffers[n].Get(id); en != nil && !en.Data.Expired(e.Sim.Now()) {
		return true
	}
	_, ok := e.OwnData(n, id)
	return ok
}

// ResponseProb returns the probability with which caching node c should
// return data for query q right now (Sec. V-C). Central nodes reply
// deterministically; this is for ordinary caching nodes.
func (e *Env) ResponseProb(c, requester trace.NodeID, q workload.Query) float64 {
	remaining := q.Deadline - e.Sim.Now()
	if remaining <= 0 {
		return 0
	}
	switch e.Cfg.Response {
	case ResponseGlobal:
		return e.Weight(c, requester, remaining)
	case ResponseSigmoid:
		return e.sig.Prob(remaining)
	default:
		return 1
	}
}

// Popularity evaluates Eq. (6) for stats rs of an item expiring at
// expires, honoring the configured Eq. (6) variant.
func (e *Env) Popularity(rs *buffer.RequestStats, expires float64) float64 {
	return rs.Popularity(e.Sim.Now(), expires, e.Cfg.PopularityFromFirst)
}

// XferSec returns the link service time of a transfer of the given
// size: the exact bits/bandwidth division the contact driver performs,
// so provenance spans attribute transfer time bitwise consistently
// with the simulated timeline.
func (e *Env) XferSec(bits float64) float64 {
	return bits / e.Driver.Bandwidth()
}
