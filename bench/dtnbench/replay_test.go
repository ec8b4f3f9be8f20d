package main

import (
	"testing"

	"dtncache/internal/engine"
	"dtncache/internal/obs"
	"dtncache/internal/scheme"
	"dtncache/internal/trace"
)

// small replays of the Infocom05 preset exercise both replay paths of
// the benchmark in about a second.
var (
	smallStream = replay{"test-stream", trace.Infocom05, []string{"-tl", "3h"}, true}
	smallMem    = replay{"test-mem", trace.Infocom05, []string{"-tl", "3h"}, false}
)

func replayDigest(t *testing.T, p replay, seed int64) string {
	t.Helper()
	cfg, _, _, err := p.prepare(t.TempDir(), seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runToEnd(eng)
	if err != nil {
		t.Fatal(err)
	}
	d, err := reportDigest(rep)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// The seed reaches the generated inputs: the same seed gives the same
// output bytes, another seed other bytes, and the streamed path agrees
// with the materialized one.
func TestSeedPlumbing(t *testing.T) {
	a := replayDigest(t, smallMem, 1)
	if b := replayDigest(t, smallMem, 1); a != b {
		t.Errorf("seed 1 twice: digests %s and %s differ", a, b)
	}
	if c := replayDigest(t, smallMem, 2); a == c {
		t.Errorf("seeds 1 and 2 gave the same digest %s", a)
	}
	if s := replayDigest(t, smallStream, 1); a != s {
		t.Errorf("streamed replay digest %s, materialized %s", s, a)
	}
}

// Prewarming a provider over the refresh grid and handing it to the
// engine replays the very snapshots the engine would build: the run
// builds none, hits the cache once per refresh, and reports the same
// bytes as a run that builds its own knowledge.
func TestPrewarmedRunReusesEveryBuild(t *testing.T) {
	cfg, tr, _, err := smallMem.prepare(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	kb := engine.SharedKnowledge(tr, n.MetricT)
	sc := scheme.DefaultConfig(tr.Duration)
	grid := 0
	for at := sc.WarmupEnd; at <= tr.Duration; at += sc.RefreshSec {
		kb.At(at)
		grid++
	}
	if grid != 51 {
		t.Fatalf("refresh grid has %d points, want 51", grid)
	}
	rec := obs.NewRecorder(nil)
	kb.SetRecorder(rec)
	warm := cfg
	warm.Knowledge, warm.Obs = kb, rec
	eng, err := engine.New(warm)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runToEnd(eng)
	if err != nil {
		t.Fatal(err)
	}
	reg := rec.Registry()
	if b, h := reg.Counter("knowledge", "builds").Value(), reg.Counter("knowledge", "cache_hits").Value(); b != 0 || h != 51 {
		t.Errorf("prewarmed run: %d builds, %d cache hits; want 0 and 51", b, h)
	}
	got, err := reportDigest(rep)
	if err != nil {
		t.Fatal(err)
	}
	if want := replayDigest(t, smallMem, 1); got != want {
		t.Errorf("prewarmed run digest %s, plain run %s", got, want)
	}
}

// The traced split runs end to end on a small replay and accounts for
// the plain run.
func TestSplitLayers(t *testing.T) {
	r := &run{workload: "test", seed: 1, dir: t.TempDir(), values: map[string]float64{}, tr: newTracer("test")}
	if err := smallStream.layers(r); err != nil {
		t.Fatal(err)
	}
	if len(r.failures) > 0 {
		t.Fatal(r.failures)
	}
	r.traced = true
	if _, err := r.result(); err != nil {
		t.Fatal(err)
	}
	if b := r.values["knowledge.builds"]; b != 51 {
		t.Errorf("knowledge.builds = %v, want 51", b)
	}
	if f := r.values["accounted_frac"]; f < 0.5 || f > 1.5 {
		t.Errorf("accounted_frac = %v: the layers do not account for the plain run", f)
	}
	if _, err := r.tr.write(r.dir); err != nil {
		t.Fatal(err)
	}
	self := r.tr.selfSeconds()
	if self["knowledge.build"] < 0 || self["knowledge.at"] <= 0 {
		t.Errorf("self times %v", self)
	}
}
