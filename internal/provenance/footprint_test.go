package provenance_test

import (
	"testing"

	"dtncache/internal/engine"
	"dtncache/internal/provenance"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// TestTracerFootprint pins the bytes a serving engine's tracer retains
// below 0.8 MB. A live Infocom05 engine at T_L 3 h retaining 64 span
// trees publishes a batch of items every four hours from the end of
// warm-up, queries the latest batch six times per half-hour step, and
// is measured after 24 virtual hours: 64 retained trees and 16
// in-flight queries with their custody tables, 14,635 spans in all.
// Records of 80 bytes in slices grown by append, with custody tables
// at most half full, retained 1,608,600 bytes here; 48-byte records in
// block chains with tables up to 3/4 full retain 768,512.
func TestTracerFootprint(t *testing.T) {
	const h = 3600.0
	const limit = 800_000
	tr, err := trace.GeneratePreset(trace.Infocom05, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Trace: tr, Live: true, AvgLifetime: 3 * h, SpanRetain: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Advance(eng.Duration() / 2); err != nil {
		t.Fatal(err)
	}
	var batch []workload.DataID
	for r := 0; r < 48; r++ {
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
			if _, err := eng.Query(engine.QuerySpec{Requester: (n * 7) % tr.Nodes, Data: batch[n%len(batch)]}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.Advance(eng.Now() + h/2); err != nil {
			t.Fatal(err)
		}
	}
	got := provenance.Footprint(eng.Env().Prov)
	if got >= limit {
		t.Errorf("tracer retains %d bytes, want < %d", got, limit)
	}
}
