package scheme

import (
	"reflect"
	"testing"

	"dtncache/internal/trace"
)

// TestDefaultConfigMatchesNormalized: DefaultConfig is the table
// Normalized fills in, so the two agree on every field DefaultConfig
// sets. dtnbench prewarms a shared provider over the refresh grid it
// reads from DefaultConfig (WarmupEnd, RefreshSec); a drift would make
// its cells build snapshots the prewarm missed.
func TestDefaultConfigMatchesNormalized(t *testing.T) {
	for _, p := range trace.Presets() {
		gc, ok := trace.PresetConfig(p, 1)
		if !ok {
			t.Fatalf("no config for preset %s", p)
		}
		tr := &trace.Trace{Name: gc.Name, Nodes: gc.Nodes, Duration: gc.DurationSec}
		def := DefaultConfig(tr.Duration)
		norm, err := Config{Trace: tr}.Normalized()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if def.WarmupEnd == 0 || def.RefreshSec == 0 {
			t.Fatalf("%s: DefaultConfig leaves the refresh grid unset: %+v", p, def)
		}
		dv, nv := reflect.ValueOf(def), reflect.ValueOf(norm)
		for i := 0; i < dv.NumField(); i++ {
			if f := dv.Field(i); !f.IsZero() && !reflect.DeepEqual(f.Interface(), nv.Field(i).Interface()) {
				t.Errorf("%s: %s = %v in DefaultConfig, %v after Normalized",
					p, dv.Type().Field(i).Name, f.Interface(), nv.Field(i).Interface())
			}
		}
	}
}
