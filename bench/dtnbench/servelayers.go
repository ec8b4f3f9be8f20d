package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dtncache/internal/cli"
	"dtncache/internal/engine"
	"dtncache/internal/obs"
	"dtncache/internal/wal"
)

// servedSpanRetain is dtnserved's -span-retain default.
const servedSpanRetain = 1024

// servedConfig rebuilds the engine dtnserved serves, to replay its log.
func servedConfig(traceFile string, seed int64, spanRetain int) (engine.Config, error) {
	cfg, err := engineConfig(servedEngineArgs(traceFile, seed))
	cfg.Live = true
	cfg.SpanRetain = spanRetain
	// dtnserved always keeps a recorder: /metrics and /healthz read it.
	cfg.Obs = obs.NewRecorder(nil, obs.WithPhases(obs.NewPhases(cli.WallClock)))
	return cfg, err
}

// summarizeServe turns the loops' samples into the run's metrics: the
// closed loop gives wall_s (seconds per serveBatch ops, median over
// batches) and cpu_s (dtnserved CPU seconds per serveBatch ops); the
// open loop gives the latency diagnostics. A failed op fails the run: a
// server that answers fast by shedding or erroring is not faster.
func (r *run) summarizeServe(out *serveRun, backlog int, cpuPerBatch float64) {
	var errs []string
	loops := append(append([]sample(nil), out.open...), out.closed...)
	failed := 0
	for _, s := range loops {
		r.attempted++
		if s.err != nil {
			failed++
			if len(errs) < 3 {
				errs = append(errs, s.err.Error())
			}
		}
	}
	r.failed += failed
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "serve-mixed: op failed:", e)
	}
	r.check(failed == 0, "%d of %d ops failed: %s", failed, len(loops), strings.Join(errs, "; "))
	r.set("wall_s", median(batchSeconds(out.closed, serveBatch)))
	r.set("cpu_s", cpuPerBatch)
	r.note("closed.ops_per_s", float64(len(out.closed))/out.closed[len(out.closed)-1].end.Seconds(), "1/s")
	lat := latenciesMs(out.open)
	r.note("open.samples", float64(len(lat)), "count")
	r.note("open.p50_ms", percentile(lat, 0.5), "ms")
	if q, v, ok := tailPercentile(lat); ok {
		r.note("open.p"+strconv.FormatFloat(100*q, 'f', -1, 64)+"_ms", v, "ms")
	}
	var late time.Duration
	for _, s := range out.open {
		late = max(late, s.start-s.due)
	}
	r.note("loadgen.late_max_ms", float64(late)/float64(time.Millisecond), "ms")
	r.note("loadgen.backlog_max", float64(backlog), "count")
}

// checkServed runs the live correctness gates and keeps /report for the
// traced replay check.
func (r *run) checkServed(c *client, srv *served, out *serveRun) error {
	issued, err := c.scrape(c.base, "/metrics", "dtn_query_issued_total")
	if err != nil {
		return err
	}
	r.check(int(issued) == c.issuedCount(), "dtn_query_issued_total is %v, the client saw %d queries issued", issued, c.issuedCount())
	if _, code, err := c.get("/healthz"); err != nil || code != 200 {
		r.check(false, "/healthz answered %d (%v)", code, err)
	}
	for _, m := range []struct{ note, counter string }{
		{"server.sheds", "dtn_http_shed_total"},
		{"server.deduped", "dtn_wal_deduped_total"},
	} {
		v, err := c.scrape("http://"+srv.debugAddr, "/debug/metrics", m.counter)
		if err != nil {
			return err
		}
		r.note(m.note, v, "count")
	}
	var code int
	if out.report, code, err = c.get("/report"); err != nil || code != 200 {
		return fmt.Errorf("GET /report: %d %v", code, err)
	}
	var st struct {
		NowSec float64 `json:"now_sec"`
	}
	if err := c.call("GET", "/v1/status", nil, 200, &st); err != nil {
		return err
	}
	out.finalSec = st.NowSec
	return nil
}

func serveMeasure(r *run) error {
	_, err := serveLoad(r)
	return err
}

// serveLayers splits the served engine work by replaying the run's own
// write-ahead log: the plain replay must reproduce the served /report
// byte for byte, and timing it per record gives the engine's share of
// each op kind. The HTTP, journal and provenance costs around it are
// diagnostics of this workload only.
func serveLayers(r *run) error {
	var out *serveRun
	if _, err := r.tr.time("serve.load", func() (err error) { out, err = serveLoad(r); return err }); err != nil {
		return err
	}
	recs, err := readWAL(out.walPath)
	if err != nil {
		return err
	}
	cfg, err := servedConfig(out.traceFile, r.seed, servedSpanRetain)
	if err != nil {
		return err
	}
	applyMs := make(map[wal.Kind][]float64)
	replay := func(cfg engine.Config, timeKinds bool) (float64, float64, error) {
		eng, err := engine.New(cfg)
		if err != nil {
			return 0, 0, err
		}
		runtime.GC()
		c0, t0 := cpuSeconds(), time.Now()
		last := t0
		var onApplied func(wal.Record, wal.ApplyResult, error)
		if timeKinds {
			onApplied = func(rec wal.Record, _ wal.ApplyResult, _ error) {
				now := time.Now()
				applyMs[rec.Kind] = append(applyMs[rec.Kind], float64(now.Sub(last))/float64(time.Millisecond))
				last = now
			}
		}
		if _, err := wal.Replay(eng, recs, onApplied); err != nil {
			return 0, 0, err
		}
		wall := time.Since(t0).Seconds()
		var buf bytes.Buffer
		if err := cli.WriteReportJSON(&buf, eng.Report()); err != nil {
			return 0, 0, err
		}
		r.check(bytes.Equal(buf.Bytes(), out.report), "WAL replay at GOMAXPROCS=%d does not reproduce the served /report", runtime.GOMAXPROCS(0))
		return wall, cpuSeconds() - c0, nil
	}
	procs := runtime.GOMAXPROCS(0)
	var withSpans float64 // the plain replay at full procs, spans retained as served
	if err := splitLayers(r, engineWork{
		tr: cfg.Trace, file: out.traceFile, until: out.finalSec, cells: []engine.Config{cfg},
		drive: func(eng *engine.Engine) error {
			_, err := wal.Replay(eng, recs, nil)
			return err
		},
		plain: func() (float64, float64, float64, error) {
			c := cfg
			c.Obs = obs.NewRecorder(nil, obs.WithPhases(obs.NewPhases(cli.WallClock)))
			full := runtime.GOMAXPROCS(0) == procs
			wall, cpu, err := replay(c, full)
			if full {
				withSpans = wall
			}
			return wall, wall, cpu, err
		},
	}); err != nil {
		return err
	}

	noSpans, err := servedConfig(out.traceFile, r.seed, 0)
	if err != nil {
		return err
	}
	var without float64
	if _, err := r.tr.time("provenance.off", func() (err error) { without, _, err = replay(noSpans, false); return err }); err != nil {
		return err
	}
	r.note("provenance.span_cost_s", withSpans-without, "s")
	r.note("engine.replay_s", withSpans, "s")
	return r.journalCosts(out, recs, applyMs)
}

// journalCosts re-appends the run's records to fresh logs to time the
// journal, and splits each synchronous op's client service time into
// WAL append, engine apply and the HTTP/JSON remainder.
func (r *run) journalCosts(out *serveRun, recs []wal.Record, applyMs map[wal.Kind][]float64) error {
	st, err := os.Stat(out.walPath)
	if err != nil {
		return err
	}
	r.note("wal.records", float64(len(recs)), "count")
	r.note("wal.bytes", float64(st.Size()), "bytes")
	appendUs := make(map[wal.SyncPolicy]float64)
	for _, p := range []struct {
		name   string
		policy wal.SyncPolicy
		limit  int // records; fsync per record is slow, so "always" times a prefix
	}{{"wal.append_us", wal.SyncCheckpoint, len(recs)}, {"wal.append_always_us", wal.SyncAlways, 1000}} {
		var us float64
		if _, err := r.tr.time(p.name, func() (err error) {
			us, err = appendCost(filepath.Join(r.dir, "reappend.wal"), recs[:min(p.limit, len(recs))], p.policy)
			return err
		}); err != nil {
			return err
		}
		appendUs[p.policy] = us
		r.note(p.name, us, "us")
	}
	service := make(map[int][]float64)
	for _, s := range out.closed {
		service[s.kind] = append(service[s.kind], float64(s.end-s.start)/float64(time.Millisecond))
	}
	for k, name := range kindNames {
		if len(service[k]) > 0 {
			r.note("http.service_ms."+name, median(service[k]), "ms")
		}
	}
	for _, k := range []struct {
		op   int
		kind wal.Kind
	}{{kPublish, wal.KindPublish}, {kQuery, wal.KindQuery}, {kAdvance, wal.KindAdvance}, {kContacts, wal.KindContacts}} {
		if len(applyMs[k.kind]) == 0 {
			continue
		}
		apply := median(applyMs[k.kind])
		r.note("engine.apply_ms."+kindNames[k.op], apply, "ms")
		// Contacts are journaled and applied by dtnserved's ingester after
		// the request returns, so only synchronous ops have an overhead.
		if k.op != kContacts && len(service[k.op]) > 0 {
			r.note("http.overhead_ms."+kindNames[k.op], median(service[k.op])-apply-appendUs[wal.SyncCheckpoint]/1e3, "ms")
		}
	}
	return nil
}

// appendCost appends recs to a fresh log under policy and returns the
// mean time per record in microseconds.
func appendCost(path string, recs []wal.Record, policy wal.SyncPolicy) (float64, error) {
	if len(recs) == 0 {
		return 0, errors.New("no WAL records to re-append")
	}
	w, err := wal.Create(path, "dtnbench", policy)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	t0 := time.Now()
	for _, rec := range recs {
		if rec.Kind == wal.KindCheckpoint {
			err = w.Checkpoint(rec.Now)
		} else {
			err = w.Append(rec)
		}
		if err != nil {
			w.Close()
			return 0, err
		}
	}
	d := time.Since(t0)
	if err := w.Close(); err != nil {
		return 0, err
	}
	return float64(d.Microseconds()) / float64(len(recs)), nil
}

// readWAL decodes every record of a cleanly closed log.
func readWAL(path string) ([]wal.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd, err := wal.NewReader(f)
	if err != nil {
		return nil, err
	}
	var recs []wal.Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", path, err)
		}
		recs = append(recs, rec)
	}
}
