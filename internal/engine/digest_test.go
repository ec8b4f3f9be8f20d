package engine_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"dtncache/internal/cli"
	"dtncache/internal/engine"
	"dtncache/internal/fault"
	"dtncache/internal/obs"
	"dtncache/internal/scheme"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// TestReportDigests pins the sha256 of the dtnsim -report-json bytes of
// configurations the dtnbench seed-1 digests do not cover: query spray,
// churn with failover and retry, both together, and the MIT Reality
// flood at T_L 90 d, where nearly every broadcast copy lands on a node
// that already carries it. The spray and churn cells exercise custody
// changes between a transfer's enqueue and its delivery, which the
// default configurations barely reach. The Reality cells pin the
// ablation's "NCLs by contact count" configuration, and 70 NCLs, more
// than one 64-bit word of the broadcast peer set holds. A digest moves
// only when a change moves simulation results.
func TestReportDigests(t *testing.T) {
	const h, d = 3600.0, 86400.0
	infocom05 := infocom(t)
	// churn mirrors check.sh's faulted cell: 2 crashes per node per day,
	// 2 h mean downtime, wiped buffers, from the trace midpoint on.
	churn := fault.Config{
		ChurnMeanUpSec: 12 * h, ChurnMeanDownSec: 2 * h,
		ChurnStartSec: infocom05.Duration / 2, WipeOnCrash: true,
	}
	cases := []struct {
		name string
		cfg  engine.Config
		want string
	}{
		{"infocom05-spray", engine.Config{Trace: infocom05, AvgLifetime: 12 * h, QuerySprayCopies: 4},
			"a58b0872bc764ceb44d169ff164116cb1f210f6ff2860877f4199c4eccf1e7fd"},
		{"infocom05-churn", engine.Config{Trace: infocom05, AvgLifetime: 3 * h, Fault: churn,
			QueryRetrySec: 20 * 60, NCLFailover: true},
			"e406f6664bad894743b6fa58e0e71ac68b1d13f47662a5cd2a8b6a848706fb00"},
		{"infocom05-churn-spray", engine.Config{Trace: infocom05, AvgLifetime: 3 * h, Fault: churn,
			QueryRetrySec: 20 * 60, NCLFailover: true, QuerySprayCopies: 4},
			"c7a908c21371777ff0e73a3d3bef23f250862ac48adb441d0197b27439fcc83a"},
		{"reality-90d", engine.Config{Trace: reality(t), AvgLifetime: 90 * d},
			"67d009cd0b5a2f6e62b77fc91a851dfe83e00e60901a0ba9e18c1cb262fb2840"},
		{"reality-ncl-contacts", engine.Config{Trace: reality(t), AvgLifetime: 7 * d, K: 8,
			NCLSelection: scheme.NCLByContacts},
			"1cb066433dfd1067f6b91f74dc7eb75ec7a76fee24b673bb745ea94dcd8d81bf"},
		{"reality-k70", engine.Config{Trace: reality(t), AvgLifetime: 24 * h, K: 70},
			"22b43ce8eec43264fa36d9116197e5ed0355778ca614585a0f83ab99baaaaeb3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, err := engine.New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := cli.WriteReportJSON(&buf, rep); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("report digest = %s, want %s", got, c.want)
			}
		})
	}
}

// TestSpanDigests pins the provenance layer's output bytes. The batch
// cells hash the span-bearing run-trace (the dtnsim -trace-out lines
// after the manifest) of check.sh's Infocom05 cell at T_L 12 h, its
// churn + failover + 20 min retry cell, the query-spray cell and the
// Epidemic flood at T_L 12 h. The live cell drives a serving engine
// that retains only a few span trees and hashes the JSON of SpanTree
// for every query ID at mid-run and at the end, so in-flight, retired
// and evicted queries are all covered. A digest moves only when a
// change moves a span.
func TestSpanDigests(t *testing.T) {
	const h = 3600.0
	infocom05 := infocom(t)
	churn := fault.Config{
		ChurnMeanUpSec: 12 * h, ChurnMeanDownSec: 2 * h,
		ChurnStartSec: infocom05.Duration / 2, WipeOnCrash: true,
	}
	cases := []struct {
		name string
		cfg  engine.Config
		want string
	}{
		{"infocom05-12h", engine.Config{Trace: infocom05, AvgLifetime: 12 * h},
			"65e53d3accd8e94cfd1854dd283cceda0e01a7c83f546996aa6e0adb84b897be"},
		{"infocom05-churn", engine.Config{Trace: infocom05, AvgLifetime: 3 * h, Fault: churn,
			QueryRetrySec: 20 * 60, NCLFailover: true},
			"5c1c59d2ef50bec6db78b28735eedc5e41d187676d7a3bb222d1c6afbf225ed5"},
		{"infocom05-spray", engine.Config{Trace: infocom05, AvgLifetime: 12 * h, QuerySprayCopies: 4},
			"7263fee165d1cab9460f139cf9ec384f740f16ddc4dc89a6f0f5af9f5a856b6a"},
		{"infocom05-epidemic", engine.Config{Trace: infocom05, AvgLifetime: 12 * h,
			Scheme: engine.SchemeEpidemic},
			"6c1e0ffd46718081b0f0fe5f76ed64ee2a3ff65b7445c182749530a0b028a668"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sum := sha256.New()
			rec := obs.NewRecorder(obs.NewStreamSink(sum))
			c.cfg.Obs = rec
			eng, err := engine.New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(sum.Sum(nil)); got != c.want {
				t.Errorf("run-trace digest = %s, want %s", got, c.want)
			}
		})
	}
	t.Run("live-retain", func(t *testing.T) {
		const want = "914fc585d2f943a4132ba8402af41df8aa786e2c1e98e052deeaef9778add053"
		if got := liveSpanTreeDigest(t, infocom05); got != want {
			t.Errorf("span tree digest = %s, want %s", got, want)
		}
	})
}

// liveSpanTreeDigest serves a query stream on a live engine retaining
// four span trees: from the end of warm-up it publishes a batch of
// items every four hours, queries the latest batch and advances in
// half-hour steps. It hashes the JSON of every query's SpanTree at
// mid-run and at the end.
func liveSpanTreeDigest(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	const h = 3600.0
	eng, err := engine.New(engine.Config{Trace: tr, Live: true, AvgLifetime: 12 * h, SpanRetain: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Advance(eng.Duration() / 2); err != nil {
		t.Fatal(err)
	}
	sum := sha256.New()
	issued := 0
	snapshot := func() {
		for id := 0; id <= issued; id++ { // one past the last: unknown
			spans, ok := eng.SpanTree(workload.QueryID(id))
			b, err := json.Marshal(struct {
				Spans []obs.SpanEvent
				OK    bool
			}{spans, ok})
			if err != nil {
				t.Fatal(err)
			}
			sum.Write(b)
		}
	}
	const rounds = 48
	var batch []workload.DataID
	for r := 0; r < rounds; r++ {
		if r%8 == 0 {
			batch = batch[:0]
			for s := 0; s < tr.Nodes; s += 5 {
				item, err := eng.Publish(engine.PublishSpec{Source: s})
				if err != nil {
					t.Fatal(err)
				}
				batch = append(batch, item.ID)
			}
		}
		for i := 0; i < 6; i++ {
			n := r*6 + i
			res, err := eng.Query(engine.QuerySpec{Requester: (n * 7) % tr.Nodes,
				Data: batch[n%len(batch)]})
			if err != nil {
				t.Fatal(err)
			}
			issued = int(res.Query.ID) + 1
		}
		if _, err := eng.Advance(eng.Now() + h/2); err != nil {
			t.Fatal(err)
		}
		if r == rounds/2 {
			snapshot()
		}
	}
	if _, err := eng.Advance(eng.Duration()); err != nil {
		t.Fatal(err)
	}
	snapshot()
	return hex.EncodeToString(sum.Sum(nil))
}
