package engine_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dtncache/internal/cli"
	"dtncache/internal/engine"
	"dtncache/internal/fault"
	"dtncache/internal/scheme"
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
