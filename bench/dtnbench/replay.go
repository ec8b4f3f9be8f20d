package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"dtncache/internal/cli"
	"dtncache/internal/engine"
	"dtncache/internal/metrics"
	"dtncache/internal/trace"
)

// seed1Digests pins the sha256 of each batch workload's output at seed 1:
// the dtnsim -report-json bytes of a replay, the same encoding of the
// sweep's six reports in cell order. A change that moves one of them
// changed simulation results.
var seed1Digests = map[string]string{
	"replay-dense":  "6411012c0ad83b3fecf7da565d9851b0123e91f1769da8d27c74800d2b049209",
	"replay-sparse": "10f1e185e9fd5f015a32dbcb8796454421436b0c94b5f1ff201a9917efdf9a98",
	"sweep-fig10":   "6460e38b2f9da6ee5f6a6b7a95d414ec6a3fa015d0de7ce0aded11c9e881714c",
}

// replay is a batch workload: one engine replay of a Table I preset,
// configured by the same flags a dtnsim user passes.
type replay struct {
	name   string
	preset trace.Preset
	flags  []string // dtnsim workload/protocol flags
	stream bool     // replay from a chunked file through Config.Stream
}

var (
	// replayDense streams the dense Infocom06 trace from its chunked file,
	// the dtnsim -tracefile f -format chunked -stream -tl 3h path.
	replayDense = replay{"replay-dense", trace.Infocom06, []string{"-tl", "3h"}, true}
	// replaySparse reads the sparse MIT Reality trace into memory and
	// replays it with every knob at its default (T_L = 1 week).
	replaySparse = replay{"replay-sparse", trace.MITReality, nil, false}
)

// engineConfig builds the engine configuration dtnsim builds from the
// same command-line flags.
func engineConfig(args []string) (engine.Config, error) {
	fs := flag.NewFlagSet("dtnsim", flag.ContinueOnError)
	tf, ef, ff := cli.AddTraceFlags(fs), cli.AddEngineFlags(fs), cli.AddFaultFlags(fs)
	if err := fs.Parse(args); err != nil {
		return engine.Config{}, err
	}
	tr, err := tf.Load(*ef.Seed)
	if err != nil {
		return engine.Config{}, err
	}
	cfg, err := ef.Config(tr, ff.Config(tr.Duration), nil)
	if err != nil {
		return engine.Config{}, err
	}
	cfg.Stream = tf.Opener()
	return cfg, nil
}

// traceSeed generates every workload's contact trace. The paper's
// Table I traces are fixed datasets, and the knowledge build's cost
// swings threefold between MIT Reality stand-ins of different seeds, so
// the trace stays put while --seed drives the data and query workload,
// the protocol's randomness and the load generator.
const traceSeed = 1

// writePreset generates preset p at traceSeed and writes it to a chunked
// file, as tracegen -preset p -format chunked does.
func writePreset(path string, p trace.Preset) (*trace.Trace, error) {
	tr, err := trace.GeneratePreset(p, traceSeed)
	if err != nil {
		return nil, err
	}
	return tr, writeChunked(path, tr)
}

// prepare writes the workload's trace file and builds the engine
// configuration dtnsim builds for it, replaying from that file.
func (p replay) prepare(dir string, seed int64) (cfg engine.Config, tr *trace.Trace, file string, err error) {
	file = filepath.Join(dir, p.name+".dtnc")
	if tr, err = writePreset(file, p.preset); err != nil {
		return cfg, nil, "", err
	}
	args := append([]string{"-tracefile", file, "-format", "chunked", "-seed", strconv.FormatInt(seed, 10)}, p.flags...)
	if p.stream {
		args = append(args, "-stream")
	}
	cfg, err = engineConfig(args)
	return cfg, tr, file, err
}

func writeChunked(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChunked(f, tr); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// runToEnd replays the engine to the end of its trace.
func runToEnd(eng *engine.Engine) (metrics.Report, error) {
	rep, err := eng.Run()
	if err != nil {
		return rep, err
	}
	if err := eng.ReplayErr(); err != nil {
		return rep, fmt.Errorf("streamed replay incomplete: %w", err)
	}
	return rep, nil
}

// reportDigest hashes the dtnsim -report-json encoding of the reports.
func reportDigest(reps ...metrics.Report) (string, error) {
	var buf bytes.Buffer
	for _, rep := range reps {
		if err := cli.WriteReportJSON(&buf, rep); err != nil {
			return "", err
		}
	}
	return digest(buf.Bytes()), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// minSetups is the fewest set-ups a run times: set-up is short and the
// passes alone give too few samples for a steady median.
const minSetups = 7

// passes repeats setup and then the timed call until the timed calls add
// up to the run length, at least once, and reports their medians; it
// then repeats set-up alone until minSetups have been timed. check
// inspects each pass's output outside the timed part and then drops it,
// so nothing of one pass is alive during the next.
func (r *run) passes(setup, timed, check func() error) error {
	var setups, walls, cpus []float64
	timeSetup := func() error {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	for total := 0.0; total < r.seconds.Seconds() || len(walls) == 0; {
		if err := timeSetup(); err != nil {
			return err
		}
		runtime.GC()
		c0, t1 := cpuSeconds(), time.Now()
		r.attempted++
		if err := timed(); err != nil {
			r.failed++
			return err
		}
		wall := time.Since(t1).Seconds()
		walls = append(walls, wall)
		cpus = append(cpus, cpuSeconds()-c0)
		total += wall
		if err := check(); err != nil {
			return err
		}
	}
	r.set("peak_rss_mb", peakRSSMB())
	for len(setups) < minSetups {
		if err := timeSetup(); err != nil {
			return err
		}
	}
	r.set("wall_s", median(walls))
	r.set("cpu_s", median(cpus))
	r.set("setup_s", median(setups))
	r.note("passes", float64(len(walls)), "count")
	return nil
}

// checkDigests gates a run's outputs: every pass must produce the same
// bytes, and at seed 1 the pinned ones.
type checkDigests struct {
	r     *run
	first string
	n     int
}

func (c *checkDigests) add(d string) {
	c.n++
	if c.first == "" {
		c.first = d
		if want, ok := seed1Digests[c.r.workload]; ok && c.r.seed == 1 {
			c.r.check(d == want, "seed-1 output digest %s, pinned %s", d, want)
		}
		return
	}
	c.r.check(d == c.first, "pass %d output digest %s differs from pass 1 (%s)", c.n, d, c.first)
}

// measure is the untraced run: setup generates the inputs (and, for a
// materialized replay, builds the engine); the timed part is the replay.
// setup and check both drop the engine and its report, so the garbage
// collector can free them before the next pass: a finished engine kept
// alive would add to the next pass's peak memory and collection work.
func (p replay) measure(r *run) error {
	var (
		cfg  engine.Config
		eng  *engine.Engine
		rep  metrics.Report
		outs = checkDigests{r: r}
	)
	setup := func() (err error) {
		cfg, eng, rep = engine.Config{}, nil, metrics.Report{}
		if cfg, _, _, err = p.prepare(r.dir, r.seed); err != nil || p.stream {
			return err
		}
		eng, err = engine.New(cfg)
		return err
	}
	timed := func() (err error) {
		if p.stream {
			if eng, err = engine.New(cfg); err != nil {
				return err
			}
		}
		rep, err = runToEnd(eng)
		return err
	}
	check := func() error {
		r.check(rep.QueriesIssued > 0 && rep.QueriesSatisfied <= rep.QueriesIssued,
			"implausible report: %d queries issued, %d satisfied", rep.QueriesIssued, rep.QueriesSatisfied)
		d, err := reportDigest(rep)
		outs.add(d)
		eng, rep = nil, metrics.Report{}
		return err
	}
	return r.passes(setup, timed, check)
}

// layers is the traced run: the replay split into trace decode,
// knowledge build, sim dispatch and scheme handling.
func (p replay) layers(r *run) error {
	var (
		cfg  engine.Config
		tr   *trace.Trace
		file string
	)
	if _, err := r.tr.time("setup", func() (err error) {
		cfg, tr, file, err = p.prepare(r.dir, r.seed)
		return err
	}); err != nil {
		return err
	}
	drive := func(eng *engine.Engine) error {
		_, err := runToEnd(eng)
		return err
	}
	return splitLayers(r, engineWork{
		tr: tr, file: file, open: cfg.Stream, until: tr.Duration,
		cells: []engine.Config{cfg}, drive: drive,
		plain: func() (float64, float64, float64, error) { return plainRun(cfg, drive) },
	})
}

// plainRun builds a fresh engine and times drive on it: the cell time,
// wall time and CPU time of a single-cell workload.
func plainRun(cfg engine.Config, drive func(*engine.Engine) error) (cell, wall, cpu float64, err error) {
	eng, err := engine.New(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	runtime.GC()
	c0, t0 := cpuSeconds(), time.Now()
	err = drive(eng)
	wall = time.Since(t0).Seconds()
	return wall, wall, cpuSeconds() - c0, err
}
