// Package experiment wires traces, workloads, schemes and metric
// collection into runnable experiments, and regenerates every table and
// figure of the paper's evaluation (Sec. VI). See DESIGN.md for the
// experiment index E1-E8.
//
// Since the engine extraction, this package is a batch driver over
// internal/engine: every cell of every sweep builds an engine.Config
// and replays it through the one shared engine code path. What remains
// here is driver logic — sweep orchestration, cell parallelism, result
// tables and the cell hook.
package experiment

import (
	"fmt"
	"sync/atomic"
	"time"

	"dtncache/internal/engine"
	"dtncache/internal/knowledge"
	"dtncache/internal/metrics"
	"dtncache/internal/trace"
)

// cellHookFn observes one completed simulation cell (see SetCellHook).
type cellHookFn func(schemeName string, wallNs int64)

var cellHook atomic.Value // cellHookFn

// SetCellHook registers fn to be called after every completed Run cell
// with the scheme name and the cell's wall-clock duration — the machinery
// behind cmd/experiments' -progress output. Pass nil to unregister. fn
// must be safe for concurrent calls: sweep cells run in parallel.
func SetCellHook(fn func(schemeName string, wallNs int64)) {
	cellHook.Store(cellHookFn(fn))
}

// Run executes one simulation of the named scheme through the engine
// and returns its metric report.
func Run(s engine.Config, schemeName string) (metrics.Report, error) {
	s.Scheme = schemeName
	eng, err := engine.New(s)
	if err != nil {
		return metrics.Report{}, err
	}
	hook, _ := cellHook.Load().(cellHookFn)
	start := time.Now()
	rep, err := eng.Run()
	if err != nil {
		return metrics.Report{}, err
	}
	// A streamed replay that lost its source mid-run saw only a prefix
	// of the trace; its report is not comparable to anything.
	if rerr := eng.ReplayErr(); rerr != nil {
		return metrics.Report{}, fmt.Errorf("streamed replay incomplete: %w", rerr)
	}
	if hook != nil {
		hook(schemeName, time.Since(start).Nanoseconds())
	}
	return rep, nil
}

// SharedKnowledge builds a knowledge provider for tr that concurrent
// Run cells share via Config.Knowledge: one contact-rate → paths →
// NCL-metric pipeline per trace instead of one per environment. The
// provider is exact (Epsilon 0), so shared results are bit-identical to
// isolated ones. metricT = 0 picks the trace's default horizon, the
// same rule Config normalization applies.
func SharedKnowledge(tr *trace.Trace, metricT float64) *knowledge.Provider {
	return engine.SharedKnowledge(tr, metricT)
}

// RunComparison runs every named scheme on the same setup concurrently,
// sharing one knowledge provider across all of them (built on demand
// when s.Knowledge is nil), and returns the reports in name order. The
// shared pipeline is exact, so each report is bit-identical to what an
// isolated Run of that scheme produces.
func RunComparison(s engine.Config, names []string) ([]metrics.Report, error) {
	s, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	if s.Knowledge == nil {
		s.Knowledge = SharedKnowledge(s.Trace, s.MetricT)
	}
	reports := make([]metrics.Report, len(names))
	if err := forEachCell(len(names), func(i int) error {
		rep, err := Run(s, names[i])
		reports[i] = rep
		return err
	}); err != nil {
		return nil, err
	}
	return reports, nil
}

// RunAveraged repeats Run with seeds seed, seed+1, ... and averages the
// headline metrics (the paper repeats each simulation "multiple times
// ... for statistical convergence").
func RunAveraged(s engine.Config, schemeName string, repeats int) (metrics.Report, error) {
	if repeats < 1 {
		repeats = 1
	}
	var agg metrics.Report
	base := s.Seed
	if base == 0 {
		base = 1
	}
	for i := 0; i < repeats; i++ {
		s.Seed = base + int64(i)
		rep, err := Run(s, schemeName)
		if err != nil {
			return metrics.Report{}, err
		}
		agg.QueriesIssued += rep.QueriesIssued
		agg.QueriesSatisfied += rep.QueriesSatisfied
		agg.SuccessRatio += rep.SuccessRatio
		agg.MeanDelaySec += rep.MeanDelaySec
		agg.MedianDelaySec += rep.MedianDelaySec
		agg.P90DelaySec += rep.P90DelaySec
		agg.MeanCopies += rep.MeanCopies
		agg.MeanBufferUse += rep.MeanBufferUse
		agg.RedundantDeliveries += rep.RedundantDeliveries
		agg.ReplacementMoves += rep.ReplacementMoves
		agg.DataBits += rep.DataBits
		agg.ControlBits += rep.ControlBits
		for p := range agg.MeanPhaseSec {
			agg.MeanPhaseSec[p] += rep.MeanPhaseSec[p] * float64(rep.PhaseSamples)
		}
		agg.PhaseSamples += rep.PhaseSamples
	}
	n := float64(repeats)
	agg.SuccessRatio /= n
	agg.MeanDelaySec /= n
	agg.MedianDelaySec /= n
	agg.P90DelaySec /= n
	agg.MeanCopies /= n
	agg.MeanBufferUse /= n
	if agg.PhaseSamples > 0 {
		for p := range agg.MeanPhaseSec {
			agg.MeanPhaseSec[p] /= float64(agg.PhaseSamples)
		}
	}
	return agg, nil
}
