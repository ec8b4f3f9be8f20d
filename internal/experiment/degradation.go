package experiment

import (
	"fmt"

	"dtncache/internal/engine"
	"dtncache/internal/fault"
	"dtncache/internal/metrics"
	"dtncache/internal/trace"
)

// degradationVariant is one scheme column of the Degradation table.
type degradationVariant struct {
	label  string
	scheme string
	mutate func(*engine.Config)
}

// Degradation sweeps fault intensity — expected node crashes per node
// per day under the two-state churn model, with buffers wiped on every
// crash — and reports how each scheme's data access degrades. Churn
// starts at the trace midpoint, so the whole evaluation half (where the
// workload lives) runs under faults. The "Intentional+failover" variant
// enables the full recovery stack: NCL failover to the next-ranked live
// node, query re-issue with exponential backoff, and a bounded push
// retry budget; comparing it to the plain Intentional column isolates
// the value of the recovery protocol at every intensity.
//
// FigureOptions.FaultChurnPerDay collapses the intensity axis to
// {0, that value}; FaultDowntimeSec overrides the mean downtime per
// crash (default 4h, 2h in quick mode).
func Degradation(o FigureOptions) (*Table, error) {
	o = o.normalized()
	preset := trace.MITReality
	tl := 7 * day
	downtime := 4 * hour
	intensities := []float64{0, 0.5, 1, 2, 4}
	if o.Quick {
		preset = trace.Infocom05
		tl = 3 * hour
		downtime = 2 * hour
		intensities = []float64{0, 1, 2, 4}
	}
	if o.FaultDowntimeSec > 0 {
		downtime = o.FaultDowntimeSec
	}
	if o.FaultChurnPerDay > 0 {
		intensities = []float64{0, o.FaultChurnPerDay}
	}
	tr, err := trace.GeneratePreset(preset, o.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "Degradation",
		Title: fmt.Sprintf("Chaos degradation: node churn with buffer wipe (%s, downtime %s)",
			preset, fmtDuration(downtime)),
		Headers: []string{"crashes/node/day", "scheme", "success ratio",
			"delay (h)"},
		Notes: []string{
			"churn starts at the trace midpoint; '+failover' = NCL failover + query retry/backoff + bounded push budget",
		},
	}
	retryAfter := tl / 8
	variants := []degradationVariant{
		{"Intentional", engine.SchemeIntentional, func(*engine.Config) {}},
		{"Intentional+failover", engine.SchemeIntentional, func(s *engine.Config) {
			s.NCLFailover = true
			s.QueryRetrySec = retryAfter
			s.PushRetryBudget = 6
		}},
		{"NoCache", engine.SchemeNoCache, func(*engine.Config) {}},
	}
	type cell struct {
		rate float64
		v    degradationVariant
	}
	var cells []cell
	for _, rate := range intensities {
		for _, v := range variants {
			cells = append(cells, cell{rate, v})
		}
	}
	kb := SharedKnowledge(tr, 0)
	reports := make([]metrics.Report, len(cells))
	if err := forEachCell(len(cells), func(i int) error {
		c := cells[i]
		setup := engine.Config{
			Trace: tr, AvgLifetime: tl, K: 8, Seed: o.Seed, Knowledge: kb,
			Fault: FaultChurn(c.rate, downtime, tr.Duration/2),
		}
		c.v.mutate(&setup)
		rep, err := RunAveraged(setup, c.v.scheme, o.Repeats)
		reports[i] = rep
		return err
	}); err != nil {
		return nil, err
	}
	for i, c := range cells {
		t.AddRow(c.rate, c.v.label, reports[i].SuccessRatio,
			reports[i].MeanDelaySec/hour)
	}
	return t, nil
}

// FaultChurn translates an operator-level fault intensity — expected
// crashes per node per day and mean downtime per crash — into the churn
// engine's mean up/down times, with buffers wiped on every crash.
// rate 0 returns the zero Config (no injector at all).
func FaultChurn(ratePerDay, downtimeSec, startSec float64) fault.Config {
	if ratePerDay <= 0 {
		return fault.Config{}
	}
	return fault.Config{
		ChurnMeanUpSec:   day / ratePerDay,
		ChurnMeanDownSec: downtimeSec,
		ChurnStartSec:    startSec,
		WipeOnCrash:      true,
	}
}
