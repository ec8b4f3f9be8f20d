package fault

import (
	"strconv"

	"dtncache/internal/mathx"
	"dtncache/internal/obs"
	"dtncache/internal/sim"
	"dtncache/internal/trace"
)

// Engine drives the configured fault models against one simulation run.
// It implements sim.FaultProbe (NodeDown / TruncateContact /
// KillTransfer) for the contact driver's hot path and schedules its own
// churn and blackout events on the simulator heap.
//
// Construction is two-phase because the driver is built after its
// options: NewEngine wires the simulator and RNG streams, Bind attaches
// the driver and recorder before Run.
type Engine struct {
	sim    *sim.Simulator
	driver *sim.Driver
	cfg    Config

	down      []bool
	downCount int
	version   uint64 // bumped on every state transition (failover cache key)

	killRng  *mathx.Rand
	truncRng *mathx.Rand

	crashes    int
	recoveries int
	truncated  int
	killed     int

	rec         *obs.Recorder
	cCrashes    *obs.Counter
	cRecoveries *obs.Counter
	cTruncated  *obs.Counter
	cKilled     *obs.Counter

	// OnDown and OnUp observe node state transitions; the scheme layer
	// hangs its recovery actions (buffer wipe, protocol-state drop,
	// re-replication) here. Optional.
	OnDown func(n trace.NodeID, at float64)
	OnUp   func(n trace.NodeID, at float64)
	// RankedNodes supplies the metric-descending node ranking used to
	// pick blackout victims. Blackout windows are skipped while it is
	// unset (pure-sim runs have no metric ranking).
	RankedNodes func(k int) []trace.NodeID

	blackoutVictims []trace.NodeID
}

// churnNode is one node's two-state Markov process. The tick closure is
// created once per node at setup, so churn costs no allocation during
// the run.
type churnNode struct {
	e    *Engine
	n    trace.NodeID
	rng  *mathx.Rand
	tick func()
}

func (c *churnNode) run() {
	e := c.e
	now := e.sim.Now()
	// Branch on the live state, not an assumed alternation: a blackout
	// window may have crashed or recovered this node in between, and the
	// process must re-synchronize rather than double-toggle.
	if !e.down[c.n] {
		e.Fail(c.n, now)
		_ = e.sim.Schedule(now+c.rng.Exp(1/e.cfg.ChurnMeanDownSec), c.tick)
	} else {
		e.Recover(c.n, now)
		_ = e.sim.Schedule(now+c.rng.Exp(1/e.cfg.ChurnMeanUpSec), c.tick)
	}
}

// NewEngine validates cfg and wires the fault models onto the
// simulator. derive mints named RNG streams off the run's root RNG
// (scheme.Env passes e.Rng.Derive); streams are only minted for enabled
// models, so a KillProb-only config consumes exactly one root-stream
// derivation.
func NewEngine(s *sim.Simulator, nodes int, cfg Config, derive func(label string) *mathx.Rand) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		sim:  s,
		cfg:  cfg,
		down: make([]bool, nodes),
	}
	if cfg.KillProb > 0 {
		// The label predates the fault layer; keeping it preserves
		// byte identity with runs recorded before it.
		e.killRng = derive("faults")
	}
	if cfg.TruncateProb > 0 {
		e.truncRng = derive("fault-truncate")
	}
	if cfg.ChurnMeanUpSec > 0 {
		churnRng := derive("fault-churn")
		for n := 0; n < nodes; n++ {
			cn := &churnNode{e: e, n: trace.NodeID(n), rng: churnRng.Derive(strconv.Itoa(n))}
			cn.tick = cn.run
			_ = s.Schedule(cfg.ChurnStartSec+cn.rng.Exp(1/cfg.ChurnMeanUpSec), cn.tick)
		}
	}
	if cfg.BlackoutNCLs > 0 {
		_ = s.Schedule(cfg.BlackoutStartSec, e.blackoutBegin)
		_ = s.Schedule(cfg.BlackoutEndSec, e.blackoutEnd)
	}
	return e, nil
}

// Bind attaches the contact driver (for crash-time contact teardown)
// and the observability recorder. Call once, after sim.NewDriver and
// before Run.
func (e *Engine) Bind(d *sim.Driver, rec *obs.Recorder) {
	e.driver = d
	e.rec = rec
	e.cCrashes = rec.Counter("fault", "node_crashes")
	e.cRecoveries = rec.Counter("fault", "node_recoveries")
	e.cTruncated = rec.Counter("fault", "contacts_truncated")
	e.cKilled = rec.Counter("fault", "transfers_killed")
}

// --- sim.FaultProbe ---

// NodeDown reports whether n is currently crashed.
//
//dtn:allocfree consulted per contact on the replay hot path
func (e *Engine) NodeDown(n trace.NodeID) bool { return e.down[n] }

// TruncateContact independently shortens the contact with probability
// TruncateProb, returning the effective end time.
//
//dtn:allocfree consulted per contact on the replay hot path
func (e *Engine) TruncateContact(c trace.Contact) sim.Time {
	if e.truncRng == nil || !e.truncRng.Bernoulli(e.cfg.TruncateProb) {
		return c.End
	}
	end := c.Start + e.truncRng.Float64()*(c.End-c.Start)
	e.truncated++
	e.cTruncated.Inc()
	e.rec.ContactTruncated(e.sim.Now(), int32(c.A), int32(c.B), end)
	return end
}

// KillTransfer independently fails the transfer with probability
// KillProb.
//
//dtn:allocfree consulted per transfer on the armed-idle probe path
func (e *Engine) KillTransfer(from, to trace.NodeID, bits float64, label string) bool {
	if e.killRng == nil || !e.killRng.Bernoulli(e.cfg.KillProb) {
		return false
	}
	e.killed++
	e.cKilled.Inc()
	e.rec.TransferKilled(e.sim.Now(), int32(from), int32(to), bits)
	return true
}

// --- state transitions ---

// Fail crashes n at virtual time at: its active contacts are
// force-closed (dropping in-flight and queued transfers) and future
// contacts touching it are skipped until recovery. Idempotent.
func (e *Engine) Fail(n trace.NodeID, at float64) {
	if e.down[n] {
		return
	}
	e.down[n] = true
	e.downCount++
	e.version++
	e.crashes++
	e.cCrashes.Inc()
	e.rec.NodeDown(at, int32(n))
	if e.driver != nil {
		e.driver.CloseNode(n)
	}
	if e.OnDown != nil {
		e.OnDown(n, at)
	}
}

// Recover brings n back up at virtual time at. Idempotent.
func (e *Engine) Recover(n trace.NodeID, at float64) {
	if !e.down[n] {
		return
	}
	e.down[n] = false
	e.downCount--
	e.version++
	e.recoveries++
	e.cRecoveries.Inc()
	e.rec.NodeUp(at, int32(n))
	if e.OnUp != nil {
		e.OnUp(n, at)
	}
}

func (e *Engine) blackoutBegin() {
	if e.RankedNodes == nil {
		return
	}
	e.blackoutVictims = e.RankedNodes(e.cfg.BlackoutNCLs)
	now := e.sim.Now()
	for _, n := range e.blackoutVictims {
		e.Fail(n, now)
	}
}

func (e *Engine) blackoutEnd() {
	now := e.sim.Now()
	for _, n := range e.blackoutVictims {
		e.Recover(n, now)
	}
	e.blackoutVictims = nil
}

// --- accessors ---

// DownCount returns how many nodes are currently down.
func (e *Engine) DownCount() int { return e.downCount }

// Version counts state transitions; it keys failover caches — a cached
// ranking is stale iff the version moved.
func (e *Engine) Version() uint64 { return e.version }

// Stats returns cumulative fault counts.
func (e *Engine) Stats() (crashes, recoveries, truncated, killed int) {
	return e.crashes, e.recoveries, e.truncated, e.killed
}
