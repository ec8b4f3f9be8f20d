package scheme

import (
	"dtncache/internal/buffer"
	"dtncache/internal/fault"
	"dtncache/internal/graph"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// The query-retry backoff chain: the attempt cap a zero
// Config.QueryRetryMax selects, and the factor each retry's timeout
// grows by.
const (
	DefaultQueryRetryMax = 3
	queryRetryFactor     = 2.0
)

// FaultAware is implemented by schemes that react to fault-injection
// node state transitions (the intentional scheme's recovery logic).
type FaultAware interface {
	// OnNodeDown fires after a node crashed: its contacts are already
	// force-closed and, with Fault.WipeOnCrash, its buffer wiped
	// (wiped holds the lost entries in ascending ID order).
	OnNodeDown(n trace.NodeID, at float64, wiped []*buffer.Entry)
	// OnNodeUp fires when a crashed node recovers.
	OnNodeUp(n trace.NodeID, at float64)
}

// nodeDown is the fault engine's OnDown hook: the crash loses the
// node's cached copies (when configured) and the scheme drops its
// volatile protocol state. The node's own generated data survives on
// stable storage (ownData is untouched).
func (e *Env) nodeDown(n trace.NodeID, at float64) {
	var wiped []*buffer.Entry
	if e.Cfg.Fault.WipeOnCrash {
		wiped = e.Buffers[n].Wipe()
	}
	if fa, ok := e.scheme.(FaultAware); ok {
		fa.OnNodeDown(n, at, wiped)
	}
}

// nodeUp is the fault engine's OnUp hook.
func (e *Env) nodeUp(n trace.NodeID, at float64) {
	if fa, ok := e.scheme.(FaultAware); ok {
		fa.OnNodeUp(n, at)
	}
}

// rankedNodes supplies blackout victim selection. The configured NCLs
// are exactly the top-k metric ranking once warm-up ended; before that
// the (empty) snapshot yields the lowest node IDs, so blackout windows
// should be configured past warm-up.
func (e *Env) rankedNodes(k int) []trace.NodeID {
	if len(e.ncls) >= k {
		return e.ncls[:k]
	}
	return graph.SelectNCLs(e.snap.Metrics(), k)
}

// scheduleQueryRetry arms attempt number attempt of q's retry chain,
// delay seconds from now. The chain stops at the configured attempt
// cap, at the query deadline, or as soon as the query is satisfied.
func (e *Env) scheduleQueryRetry(q workload.Query, attempt int, delay float64) {
	maxAttempts := e.Cfg.QueryRetryMax
	if maxAttempts == 0 {
		maxAttempts = DefaultQueryRetryMax
	}
	if attempt > maxAttempts || e.Sim.Now()+delay >= q.Deadline {
		return
	}
	// Scheduling relative to now never fails.
	_ = e.Sim.After(delay, func() {
		if e.M.Satisfied(q.ID) || e.Buffers[q.Requester].Has(q.Data) {
			return
		}
		e.cQRetries.Inc()
		e.Prov.QueryRetry(q, e.Sim.Now(), attempt)
		e.scheme.OnQuery(q)
		e.scheduleQueryRetry(q, attempt+1, delay*queryRetryFactor)
	})
}

// EffectiveNCL returns the node currently acting as central for NCL k:
// the configured center normally, or — under NCLFailover with the
// center down — the best-ranked live stand-in under current knowledge.
// Without a fault engine or failover this is a branch and an index.
func (e *Env) EffectiveNCL(k int) trace.NodeID {
	if e.FixedCenters() {
		return e.ncls[k]
	}
	if len(e.effNCLs) != len(e.ncls) || e.effVersion != e.faults.Version() || e.effSnap != e.snap {
		e.recomputeEffNCLs()
	}
	return e.effNCLs[k]
}

// FixedCenters reports whether EffectiveNCL(k) is always NCLs()[k]:
// without a fault engine or failover it is a pure index, while with
// them a call may rebuild the failover assignment and log the change.
func (e *Env) FixedCenters() bool { return e.faults == nil || !e.Cfg.NCLFailover }

func containsNode(ns []trace.NodeID, n trace.NodeID) bool {
	for _, m := range ns {
		if m == n {
			return true
		}
	}
	return false
}

// recomputeEffNCLs rebuilds the failover assignment: each down center
// is replaced by the highest-metric node that is up, is not itself a
// configured center, and is not already standing in for another slot.
// A slot with no viable stand-in keeps its down center (pushes toward
// it are then bounded by PushRetryBudget). The result is cached per
// (engine version, knowledge snapshot), so the rebuild runs per fault
// transition or refresh, not per access.
func (e *Env) recomputeEffNCLs() {
	prev := e.effNCLs
	eff := make([]trace.NodeID, len(e.ncls))
	var ranking []trace.NodeID
	for k, center := range e.ncls {
		eff[k] = center
		if !e.faults.NodeDown(center) {
			continue
		}
		if ranking == nil {
			ranking = graph.SelectNCLs(e.snap.Metrics(), e.N)
		}
		for _, cand := range ranking {
			if e.faults.NodeDown(cand) || containsNode(e.ncls, cand) || containsNode(eff[:k], cand) {
				continue
			}
			eff[k] = cand
			break
		}
	}
	for k := range eff {
		if prev != nil && k < len(prev) && prev[k] == eff[k] {
			continue
		}
		if eff[k] != e.ncls[k] {
			e.Obs.Failover(e.Sim.Now(), int32(e.ncls[k]), int32(eff[k]), int64(k))
		}
	}
	e.effNCLs = eff
	e.effVersion = e.faults.Version()
	e.effSnap = e.snap
}

// noteResponse feeds the no-duplicate-response invariant: it records
// every reply actually created and counts repeats per (node, query).
// A single branch when the checker is off.
func (e *Env) noteResponse(n trace.NodeID, id workload.QueryID) {
	if !e.Cfg.CheckInvariants {
		return
	}
	if e.respSeen == nil {
		e.respSeen = make(map[uint64]bool)
	}
	key := uint64(n)<<32 | uint64(uint32(id))
	if e.respSeen[key] {
		e.dupResponses++
		return
	}
	e.respSeen[key] = true
}

// maxViolations caps how many invariant breaches one run collects.
const maxViolations = 100

func (e *Env) checkInvariants() {
	if len(e.violations) >= maxViolations {
		return
	}
	e.violations = append(e.violations, fault.Check(e, e.Sim.Now())...)
}

// InvariantViolations returns the breaches collected so far (nil when
// clean or when CheckInvariants is off).
func (e *Env) InvariantViolations() []fault.Violation { return e.violations }

// --- fault.World (the invariant checker's view of the run) ---

// NumNodes implements fault.World.
func (e *Env) NumNodes() int { return e.N }

// NodeDown reports whether fault injection currently has n crashed
// (always false without an engine).
func (e *Env) NodeDown(n trace.NodeID) bool {
	return e.faults != nil && e.faults.NodeDown(n)
}

// BufferUsage implements fault.World.
func (e *Env) BufferUsage(n trace.NodeID) (used, capacity float64) {
	return e.Buffers[n].Used(), e.Buffers[n].Capacity()
}

// BusyTransfers implements fault.World.
func (e *Env) BusyTransfers() [][2]trace.NodeID { return e.Driver.BusyPairs() }

// DuplicateResponses implements fault.World.
func (e *Env) DuplicateResponses() int { return e.dupResponses }
