package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dtncache/internal/engine"
	"dtncache/internal/experiment"
	"dtncache/internal/metrics"
	"dtncache/internal/trace"
)

// sweepCells are the cells of Fig10's Quick mode over tr, in its row
// order: three T_L values × Intentional and NoCache, K = 8.
func sweepCells(tr *trace.Trace, seed int64) []engine.Config {
	var cells []engine.Config
	for _, tl := range []float64{12 * 3600, 7 * 86400, 90 * 86400} {
		for _, name := range []string{engine.SchemeIntentional, engine.SchemeNoCache} {
			cells = append(cells, engine.Config{Trace: tr, AvgLifetime: tl, K: 8, Seed: seed, Scheme: name})
		}
	}
	return cells
}

// sweep runs the quick Fig. 10 sweep over tr the way Fig10 schedules it:
// the six cells share one knowledge provider and go to a pool of
// GOMAXPROCS workers, each taking the next cell as soon as it is free.
// Fig10 itself draws its trace from the seed too, which is why the
// benchmark does not call it (see traceSeed); at seed 1 the two compute
// the same cells (TestSweepIsFig10).
func sweep(tr *trace.Trace, seed int64) ([]metrics.Report, error) {
	cells := sweepCells(tr, seed)
	kb := experiment.SharedKnowledge(tr, 0)
	reps := make([]metrics.Report, len(cells))
	errs := make([]error, len(cells))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range min(runtime.GOMAXPROCS(0), len(cells)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(cells); i = int(next.Add(1)) - 1 {
				c := cells[i]
				c.Knowledge = kb
				reps[i], errs[i] = experiment.Run(c, c.Scheme)
			}
		}()
	}
	wg.Wait()
	return reps, errors.Join(errs...)
}

// sweepMeasure is the untraced sweep-fig10 run; its set-up generates the
// MIT Reality trace. setup and check drop the previous pass's trace and
// reports, as replay.measure does.
func sweepMeasure(r *run) error {
	var (
		tr   *trace.Trace
		reps []metrics.Report
		outs = checkDigests{r: r}
	)
	setup := func() (err error) {
		tr, reps = nil, nil
		tr, err = trace.GeneratePreset(trace.MITReality, traceSeed)
		return err
	}
	timed := func() (err error) {
		reps, err = sweep(tr, r.seed)
		return err
	}
	check := func() error {
		d, err := reportDigest(reps...)
		outs.add(d)
		reps = nil
		return err
	}
	return r.passes(setup, timed, check)
}

// sweepLayers splits the sweep: its six cells share one prewarmed
// provider; the plain run is the sweep itself, its cell times taken from
// the experiment cell hook.
func sweepLayers(r *run) error {
	var tr *trace.Trace
	if _, err := r.tr.time("setup", func() (err error) {
		tr, err = trace.GeneratePreset(trace.MITReality, traceSeed)
		return err
	}); err != nil {
		return err
	}
	return splitLayers(r, engineWork{
		tr: tr, until: tr.Duration, cells: sweepCells(tr, r.seed),
		drive: func(eng *engine.Engine) error {
			_, err := runToEnd(eng)
			return err
		},
		plain: func() (cell, wall, cpu float64, err error) {
			var (
				mu       sync.Mutex
				sum, top float64
			)
			experiment.SetCellHook(func(_ string, ns int64) {
				mu.Lock()
				defer mu.Unlock()
				sum += float64(ns) / 1e9
				top = max(top, float64(ns)/1e9)
			})
			defer experiment.SetCellHook(nil)
			runtime.GC()
			c0, t0 := cpuSeconds(), time.Now()
			_, err = sweep(tr, r.seed)
			wall = time.Since(t0).Seconds()
			procs := runtime.GOMAXPROCS(0)
			at := fmt.Sprintf("experiment.procs%d.", procs)
			r.note(at+"cell_s_sum", sum, "s")
			r.note(at+"cell_s_max", top, "s")
			r.note(at+"cell_efficiency", sum/(wall*float64(procs)), "ratio")
			return sum, wall, cpuSeconds() - c0, err
		},
	})
}
