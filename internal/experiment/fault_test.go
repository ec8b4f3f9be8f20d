package experiment

import (
	"bytes"
	"dtncache/internal/engine"
	"strconv"
	"testing"

	"dtncache/internal/fault"
)

// faultedSetup is smallSetup with the full chaos stack armed: churn
// with buffer wipe from the trace midpoint, plus the recovery protocol
// (NCL failover, query retry, bounded push budget) so the failure and
// recovery paths both land in the recorded trace.
func faultedSetup(t *testing.T) engine.Config {
	setup := smallSetup(t)
	setup.Fault = FaultChurn(2, 2*hour, setup.Trace.Duration/2)
	setup.NCLFailover = true
	setup.QueryRetrySec = setup.AvgLifetime / 8
	setup.PushRetryBudget = 6
	return setup
}

// TestFaultedTraceByteIdentity extends the determinism contract to
// faulted runs: churn, wipes, failover and retries are all drawn from
// the seeded RNG tree, so two invocations at the same seed must record
// byte-identical NDJSON.
func TestFaultedTraceByteIdentity(t *testing.T) {
	a := recordedTrace(t, faultedSetup(t))
	b := recordedTrace(t, faultedSetup(t))
	if len(a) == 0 {
		t.Fatal("faulted run recorded nothing")
	}
	if !bytes.Contains(a, []byte(`"node-down"`)) {
		t.Fatal("faulted trace contains no node-down events; churn never fired")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("faulted traces differ across identical runs: %d vs %d bytes",
			len(a), len(b))
	}
	setup := faultedSetup(t)
	setup.Seed = 2
	if bytes.Equal(a, recordedTrace(t, setup)) {
		t.Error("different seeds recorded identical faulted traces")
	}
}

// TestZeroIntensityFaultMatchesNoInjector pins the "zero config, zero
// cost" contract end to end: a Fault config whose models are all
// disabled must not install an engine, consume RNG draws, or perturb a
// single recorded byte relative to a run with no Fault field at all.
func TestZeroIntensityFaultMatchesNoInjector(t *testing.T) {
	base := recordedTrace(t, smallSetup(t))
	zeroed := smallSetup(t)
	// WipeOnCrash and a start time arm nothing on their own.
	zeroed.Fault = fault.Config{WipeOnCrash: true, ChurnStartSec: 10}
	if !zeroed.Fault.Zero() {
		t.Fatal("test config unexpectedly arms a fault model")
	}
	if got := recordedTrace(t, zeroed); !bytes.Equal(base, got) {
		t.Errorf("zero-intensity fault config perturbed the trace: %d vs %d bytes",
			len(base), len(got))
	}
	if !FaultChurn(0, 2*hour, 100).Zero() {
		t.Error("FaultChurn with rate 0 must return the zero Config")
	}
}

// TestDegradationFailoverWins asserts the headline property of the
// chaos sweep: the recovery protocol must pay for itself, with
// Intentional+failover beating plain Intentional on success ratio at
// every nonzero fault intensity, across the full quick grid
// (>= 3 schemes x >= 4 intensities).
func TestDegradationFailoverWins(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-mode degradation sweep")
	}
	tbl, err := Degradation(FigureOptions{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// rows: [crashes/node/day, scheme, success ratio, delay (h)]
	success := map[float64]map[string]float64{}
	schemes := map[string]bool{}
	for _, row := range tbl.Rows {
		rate, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			t.Fatalf("unparseable rate %q: %v", row[0], err)
		}
		sr, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("unparseable success ratio %q: %v", row[2], err)
		}
		if success[rate] == nil {
			success[rate] = map[string]float64{}
		}
		success[rate][row[1]] = sr
		schemes[row[1]] = true
	}
	if len(schemes) < 3 {
		t.Errorf("sweep covers %d schemes, want >= 3", len(schemes))
	}
	if len(success) < 4 {
		t.Errorf("sweep covers %d intensities, want >= 4", len(success))
	}
	for rate, byScheme := range success {
		plain, okP := byScheme["Intentional"]
		failover, okF := byScheme["Intentional+failover"]
		if !okP || !okF {
			t.Fatalf("rate %g missing a variant: %v", rate, byScheme)
		}
		if rate == 0 {
			continue
		}
		if failover <= plain {
			t.Errorf("rate %g: failover success %.3f does not beat plain %.3f",
				rate, failover, plain)
		}
	}
}
