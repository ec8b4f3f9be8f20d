package main

import (
	"slices"
	"testing"

	"dtncache/internal/experiment"
	"dtncache/internal/trace"
)

// At seed 1 the benchmark's sweep computes exactly the cells of the
// paper's Fig. 10 in Quick mode, in the same order: a change to Fig10's
// cell list breaks this test rather than leaving the benchmark behind.
func TestSweepIsFig10(t *testing.T) {
	tr, err := trace.GeneratePreset(trace.MITReality, 1)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := sweep(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := experiment.Fig10(experiment.FigureOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != len(reps) {
		t.Fatalf("Fig10 has %d cells, the sweep %d", len(fig.Rows), len(reps))
	}
	cells := sweepCells(tr, 1)
	for i, rep := range reps {
		var want experiment.Table
		want.AddRow(cells[i].Scheme, rep.SuccessRatio, rep.MeanDelaySec/3600, rep.MeanCopies)
		if got := fig.Rows[i][1:]; !slices.Equal(got, want.Rows[0]) {
			t.Errorf("cell %d: Fig10 row %v, sweep %v", i, got, want.Rows[0])
		}
	}
}
