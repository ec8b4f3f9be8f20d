// Package fault is the deterministic fault-injection layer: seeded,
// composable failure models driven by events on the simulator's pooled
// heap, plus the runtime invariant checker the recovery machinery is
// verified against.
//
// Fault models (all optional, all seeded from the run's root RNG via
// derived streams, so a faulted run is byte-identical across
// invocations at a fixed seed):
//
//   - node crash/recover churn: a per-node two-state Markov process
//     with exponentially distributed up and down times; crashing a
//     node force-closes its active contacts and (optionally) wipes its
//     buffer, and traced contacts touching a down node never open;
//   - contact truncation: each contact is independently shortened to a
//     uniform point of its traced span with a fixed probability;
//   - mid-transfer kill: each transfer independently fails in flight
//     with a fixed probability (the CLIs' -drop flag);
//   - NCL blackout: a window during which the top-k metric-ranked
//     central nodes are all down — the targeted worst case for the
//     intentional scheme's pull phase.
//
// The Engine implements sim.FaultProbe; with no engine installed the
// driver's hot path stays at one nil-check branch and 0 allocs/op
// (mirroring the internal/obs nil-safe pattern).
//
//dtn:determinism
package fault

import (
	"errors"
	"math"
)

// Config selects and parameterizes the fault models. The zero value
// disables everything.
type Config struct {
	// ChurnMeanUpSec enables crash/recover churn when positive: each
	// node independently stays up for an Exp-distributed time with this
	// mean, then crashes.
	ChurnMeanUpSec float64
	// ChurnMeanDownSec is the mean Exp-distributed downtime after a
	// churn crash. Required positive when churn is enabled.
	ChurnMeanDownSec float64
	// ChurnStartSec delays the first possible churn crash, e.g. past a
	// warmup window.
	ChurnStartSec float64
	// WipeOnCrash loses the crashed node's buffered copies (the node
	// reboots empty); its own generated data survives on stable
	// storage.
	WipeOnCrash bool

	// TruncateProb is the per-contact probability of the contact being
	// cut short at a uniform point of its traced span.
	TruncateProb float64
	// KillProb is the per-transfer probability of an in-flight kill.
	KillProb float64

	// BlackoutNCLs > 0 crashes the top-BlackoutNCLs metric-ranked nodes
	// for the window [BlackoutStartSec, BlackoutEndSec).
	BlackoutNCLs     int
	BlackoutStartSec float64
	BlackoutEndSec   float64
}

// Zero reports whether the config enables no fault model at all, i.e.
// installing an engine for it would be pure overhead.
func (c Config) Zero() bool {
	return c.ChurnMeanUpSec == 0 && c.TruncateProb == 0 &&
		c.KillProb == 0 && c.BlackoutNCLs == 0
}

func nonFinite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// Validate rejects malformed fault parameters.
func (c Config) Validate() error {
	switch {
	case nonFinite(c.ChurnMeanUpSec, c.ChurnMeanDownSec, c.ChurnStartSec,
		c.TruncateProb, c.KillProb, c.BlackoutStartSec, c.BlackoutEndSec):
		return errors.New("fault: non-finite parameter")
	case c.ChurnMeanUpSec < 0:
		return errors.New("fault: negative churn mean uptime")
	case c.ChurnMeanDownSec < 0:
		return errors.New("fault: negative churn mean downtime")
	case c.ChurnMeanUpSec > 0 && c.ChurnMeanDownSec == 0:
		return errors.New("fault: churn enabled without a mean downtime")
	case c.ChurnStartSec < 0:
		return errors.New("fault: negative churn start time")
	case c.TruncateProb < 0 || c.TruncateProb > 1:
		return errors.New("fault: contact truncation probability outside [0,1]")
	case c.KillProb < 0 || c.KillProb > 1:
		return errors.New("fault: transfer kill probability outside [0,1]")
	case c.BlackoutNCLs < 0:
		return errors.New("fault: negative blackout NCL count")
	case c.BlackoutStartSec < 0:
		return errors.New("fault: negative blackout start time")
	case c.BlackoutNCLs > 0 && c.BlackoutEndSec <= c.BlackoutStartSec:
		return errors.New("fault: blackout end not after blackout start")
	}
	return nil
}
