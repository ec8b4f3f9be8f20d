package cli

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dtncache/internal/engine"
	"dtncache/internal/knowledge"
	"dtncache/internal/obs"
	"dtncache/internal/trace"
)

// TestDigestableDropsPointers: the manifest's config digest, and with
// it dtnserved's WAL gate, hashes the %+v rendering of Digestable. A
// pointer or func field left in would print an address and make the
// digest differ from run to run.
func TestDigestableDropsPointers(t *testing.T) {
	c := engine.Config{
		Trace:       &trace.Trace{Name: "x", Nodes: 2, Duration: 100},
		Knowledge:   knowledge.NewProvider(knowledge.Params{Nodes: 2, MetricT: 10}, nil),
		Stream:      func() (trace.ContactSource, error) { return trace.NewSliceSource(nil), nil },
		Obs:         obs.NewRecorder(nil),
		AvgLifetime: 3600,
	}
	v := reflect.ValueOf(c)
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Pointer, reflect.Func, reflect.Map, reflect.Slice, reflect.Chan, reflect.Interface:
			if f.IsZero() {
				t.Fatalf("set %s in this test so the check covers it", v.Type().Field(i).Name)
			}
		}
	}
	a, b := fmt.Sprintf("%+v", Digestable(c)), fmt.Sprintf("%+v", Digestable(c))
	if strings.Contains(a, "0x") {
		t.Errorf("digest input carries an address: %s", a)
	}
	if a != b {
		t.Errorf("digest input differs between calls:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "AvgLifetime:3600") {
		t.Errorf("digest input lost the scalar knobs: %s", a)
	}
}
