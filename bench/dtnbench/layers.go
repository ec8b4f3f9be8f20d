package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dtncache/internal/engine"
	"dtncache/internal/knowledge"
	"dtncache/internal/obs"
	"dtncache/internal/scheme"
	"dtncache/internal/sim"
	"dtncache/internal/trace"
)

// engineWork is a workload's engine work as the traced run splits it:
// one or more cells (engine configurations over one trace) that share a
// knowledge provider, each driven by the workload's own driver.
type engineWork struct {
	tr    *trace.Trace                        // the workload's trace, contacts materialized
	file  string                              // tr's chunked file ("" = write one)
	open  func() (trace.ContactSource, error) // set when the cells stream from file
	until float64                             // virtual time the cells reach
	cells []engine.Config
	drive func(*engine.Engine) error
	// plain runs the workload's engine work as the workload itself does,
	// with fresh knowledge, and returns the summed cell time, the wall
	// time and the CPU time.
	plain func() (cell, wall, cpu float64, err error)
}

// counts maps per-layer count metrics onto the obs registry counters
// they are read from.
var counts = []struct{ metric, subsystem, name string }{
	{"engine.events", "sim", "events_dispatched"},
	{"contact.transfers_delivered", "contact", "transfers_delivered"},
	{"core.pushes", "core", "pushes"},
	{"core.replacement_drops", "core", "replacement_drops"},
	{"buffer.evictions", "buffer", "evictions"},
	{"query.issued", "query", "issued"},
	{"query.answered", "query", "answered"},
}

type noopHandler struct{}

func (noopHandler) ContactStart(*sim.Session) {}
func (noopHandler) ContactEnd(*sim.Session)   {}

// splitLayers measures each layer of w from outside, by timing calls
// into its public functions:
//
//   - trace: the median of three decode passes over the trace's chunked
//     file;
//   - knowledge: Provider.At on a fresh provider over the refresh grid
//     the scheme environment walks;
//   - sim: the contact driver with a no-op handler over the same window;
//   - scheme: the cells driven with the prewarmed provider, minus sim;
//   - plain: the workload's own engine work with cold knowledge, at
//     GOMAXPROCS=n and 1, which the layers above must account for.
func splitLayers(r *run, w engineWork) error {
	t := r.tr
	if w.file == "" {
		w.file = filepath.Join(r.dir, r.workload+".dtnc")
		if _, err := t.time("trace.write", func() error { return writeChunked(w.file, w.tr) }); err != nil {
			return err
		}
	}
	st, err := os.Stat(w.file)
	if err != nil {
		return err
	}
	var decodes []float64
	for range 3 {
		var n int
		d, err := t.time("trace.decode", func() (err error) { n, err = decodeFile(w.file); return err })
		if err != nil {
			return err
		}
		r.check(n == len(w.tr.Contacts), "decoded %d contacts, trace has %d", n, len(w.tr.Contacts))
		decodes = append(decodes, d)
	}
	r.set("trace.decode_s", median(decodes))
	r.set("trace.decode_mb_per_s", float64(st.Size())/1e6/median(decodes))

	var simS float64
	var events uint64
	for range w.cells {
		d, err := t.time("sim.replay", func() error {
			s := sim.New()
			drv := sim.NewDriver(s, noopHandler{})
			if w.open != nil {
				src, err := w.open()
				if err != nil {
					return err
				}
				err = drv.LoadStream(src)
			} else {
				err = drv.Load(w.tr)
			}
			if err != nil {
				return err
			}
			s.RunUntil(w.until)
			events += s.Processed()
			return drv.FeedErr()
		})
		if err != nil {
			return err
		}
		simS += d
	}
	r.set("sim.replay_s", simS)
	r.set("sim.events", float64(events))

	// The split and the plain run it must account for are repeated until
	// the run length is used up, and each is reported as a median: a
	// single pass of each, taken seconds apart on a shared host, can
	// differ by more than the accounting tolerance.
	var builds, news, warms, fracs, effs, walls []float64
	procs := runtime.GOMAXPROCS(0)
	for t0 := time.Now(); len(fracs) == 0 || time.Since(t0) < r.seconds; {
		r.attempted++
		build, kb, err := prewarm(r, w)
		if err != nil {
			return err
		}
		newS, warmS, err := prewarmedCells(r, w, kb)
		if err != nil {
			return err
		}
		var cell, wall, cpu float64
		if _, err := t.time("plain", func() (err error) { cell, wall, cpu, err = w.plain(); return err }); err != nil {
			return err
		}
		builds, news, warms = append(builds, build), append(news, newS), append(warms, warmS)
		fracs = append(fracs, (build+warmS)/cell)
		effs = append(effs, cpu/(wall*float64(procs)))
		walls = append(walls, wall)
	}
	r.set("knowledge.build_s", median(builds))
	r.set("knowledge.build_ms_per_snapshot", 1e3*median(builds)/r.values["knowledge.builds"])
	r.set("engine.new_s", median(news))
	r.set("scheme.replay_s", median(warms)-simS)
	r.set("accounted_frac", median(fracs))
	r.set("parallel.efficiency", median(effs))

	var wall1 float64
	runtime.GOMAXPROCS(1)
	_, err = t.time("plain.procs1", func() (err error) { _, wall1, _, err = w.plain(); return err })
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	r.set("parallel.speedup_1_to_n", wall1/median(walls))
	return nil
}

// prewarm builds a fresh knowledge provider's snapshots over the refresh
// grid the scheme environment walks and returns the time it took.
func prewarm(r *run, w engineWork) (float64, *knowledge.Provider, error) {
	cfg, err := w.cells[0].Normalized()
	if err != nil {
		return 0, nil, err
	}
	var kb *knowledge.Provider
	if w.open != nil {
		kb = knowledge.NewStreamProvider(knowledge.Params{Nodes: w.tr.Nodes, MetricT: cfg.MetricT}, w.open)
	} else {
		kb = engine.SharedKnowledge(w.tr, cfg.MetricT)
	}
	sc := scheme.DefaultConfig(w.tr.Duration)
	builds := 0
	runtime.GC()
	end := r.tr.begin("knowledge.build")
	// The grid is accumulated exactly as sim.Every schedules the
	// refreshes, so every At below is a time the cells will ask for.
	for at := sc.WarmupEnd; at <= w.until; at += sc.RefreshSec {
		r.tr.time("knowledge.at", func() error { kb.At(at); return nil })
		builds++
	}
	build := end()
	r.set("knowledge.builds", float64(builds))
	return build, kb, kb.StreamErr()
}

// prewarmedCells drives every cell with the prewarmed provider and returns
// the summed engine.New and drive times. The cells must build no
// snapshot; their counters are the run's counts.
func prewarmedCells(r *run, w engineWork, kb *knowledge.Provider) (newS, warmS float64, err error) {
	rec := obs.NewRecorder(nil)
	kb.SetRecorder(rec)
	for _, c := range w.cells {
		c.Knowledge, c.Obs = kb, rec
		var eng *engine.Engine
		d, err := r.tr.time("engine.new", func() (err error) { eng, err = engine.New(c); return err })
		if err != nil {
			return 0, 0, err
		}
		newS += d
		runtime.GC()
		if d, err = r.tr.time("engine.prewarmed", func() error { return w.drive(eng) }); err != nil {
			return 0, 0, err
		}
		warmS += d
	}
	reg := rec.Registry()
	r.check(reg.Counter("knowledge", "builds").Value() == 0,
		"prewarmed cells built %d snapshots; the refresh grid does not match the scheme's",
		reg.Counter("knowledge", "builds").Value())
	for _, c := range counts {
		r.set(c.metric, float64(reg.Counter(c.subsystem, c.name).Value()))
	}
	return newS, warmS, nil
}

// decodeFile makes one full pass over a chunked trace file and returns
// the number of contacts read.
func decodeFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sr, err := trace.NewStreamReader(f)
	if err != nil {
		return 0, err
	}
	for n := 0; ; n++ {
		if _, err := sr.NextContact(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, fmt.Errorf("decode %s: %w", path, err)
		}
	}
}
