package experiment

import (
	"strconv"
	"strings"
	"testing"

	"dtncache/internal/engine"
	"dtncache/internal/scheme"
	"dtncache/internal/trace"
)

func smallTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := trace.GeneratePreset(trace.Infocom05, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func smallSetup(t *testing.T) engine.Config {
	return engine.Config{
		Trace:       smallTrace(t),
		AvgLifetime: 3 * hour,
		AvgSizeBits: 100e6,
		K:           3,
		Seed:        1,
	}
}

func TestFactoryKnownSchemes(t *testing.T) {
	names := append(append([]string{}, engine.SchemeNames()...), engine.ReplacementNames()...)
	for _, name := range names {
		f, err := engine.Factory(name)
		if err != nil {
			t.Errorf("Factory(%q): %v", name, err)
			continue
		}
		s := f()
		want := name
		if s.Name() != want {
			t.Errorf("scheme %q reports name %q", name, s.Name())
		}
	}
}

func TestFactoryUnknownScheme(t *testing.T) {
	if _, err := engine.Factory("nope"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestRunRequiresTrace(t *testing.T) {
	if _, err := Run(engine.Config{}, engine.SchemeNoCache); err == nil {
		t.Error("missing trace accepted")
	}
}

func TestRunUnknownScheme(t *testing.T) {
	if _, err := Run(smallSetup(t), "nope"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestRunEveryScheme(t *testing.T) {
	setup := smallSetup(t)
	names := append(append([]string{}, engine.SchemeNames()...), engine.ReplacementNames()[1:]...)
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			rep, err := Run(setup, name)
			if err != nil {
				t.Fatal(err)
			}
			if rep.QueriesIssued == 0 {
				t.Error("no queries issued")
			}
			if rep.SuccessRatio < 0 || rep.SuccessRatio > 1 {
				t.Errorf("success = %v", rep.SuccessRatio)
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	setup := smallSetup(t)
	a, err := Run(setup, engine.SchemeIntentional)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(setup, engine.SchemeIntentional)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("non-deterministic runs: %+v vs %+v", a, b)
	}
}

func TestRunAveraged(t *testing.T) {
	setup := smallSetup(t)
	rep, err := RunAveraged(setup, engine.SchemeNoCache, 2)
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(setup, engine.SchemeNoCache)
	if err != nil {
		t.Fatal(err)
	}
	// Two repeats accumulate counts; issued must exceed a single run's.
	if rep.QueriesIssued <= one.QueriesIssued {
		t.Errorf("averaged issued %d, single %d", rep.QueriesIssued, one.QueriesIssued)
	}
	if rep.SuccessRatio <= 0 || rep.SuccessRatio > 1 {
		t.Errorf("averaged ratio = %v", rep.SuccessRatio)
	}
}

func TestDefaultMetricT(t *testing.T) {
	cases := map[string]float64{
		string(trace.Infocom05):  3600,
		string(trace.Infocom06):  900,
		string(trace.MITReality): 7 * 86400,
		string(trace.UCSD):       3 * 86400,
		"custom":                 86400,
	}
	for name, want := range cases {
		if got := scheme.DefaultMetricT(name); got != want {
			t.Errorf("DefaultMetricT(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestIntentionalWinsOnSmallTrace(t *testing.T) {
	// The headline claim, checked at test scale: the intentional scheme
	// beats every baseline on success ratio.
	setup := smallSetup(t)
	setup.K = 5
	ours, err := Run(setup, engine.SchemeIntentional)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range engine.SchemeNames()[1:] {
		rep, err := Run(setup, name)
		if err != nil {
			t.Fatal(err)
		}
		if rep.SuccessRatio >= ours.SuccessRatio {
			t.Errorf("%s success %.3f >= intentional %.3f", name,
				rep.SuccessRatio, ours.SuccessRatio)
		}
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		ID:      "Fig. X",
		Title:   "demo",
		Headers: []string{"a", "bee"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow("x", 0.5)
	tbl.AddRow(12345.0, 42)
	out := tbl.Format()
	for _, want := range []string{"Fig. X", "demo", "a", "bee", "0.500", "12345", "42", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestFig7Table(t *testing.T) {
	tbl, err := Fig7(FigureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 11 {
		t.Errorf("rows = %d, want 11", len(tbl.Rows))
	}
	// First row is p_min, last p_max.
	if tbl.Rows[0][1] != "0.450" || tbl.Rows[10][1] != "0.800" {
		t.Errorf("endpoints = %v, %v", tbl.Rows[0][1], tbl.Rows[10][1])
	}
}

func TestFig9Tables(t *testing.T) {
	a, b, err := Fig9(FigureOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 3 {
		t.Errorf("fig 9a rows = %d", len(a.Rows))
	}
	if len(b.Rows) != 10 {
		t.Errorf("fig 9b rows = %d", len(b.Rows))
	}
}

func TestTable1(t *testing.T) {
	tbl, err := Table1(FigureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "Infocom05" || tbl.Rows[2][2] != "97" {
		t.Errorf("unexpected cells: %v", tbl.Rows)
	}
}

func TestFig4Skewed(t *testing.T) {
	tbl, err := Fig4(FigureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
}

func TestNCLMetricsRange(t *testing.T) {
	tr := smallTrace(t)
	ms, err := NCLMetrics(tr, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != tr.Nodes {
		t.Fatalf("metrics len = %d", len(ms))
	}
	for i, m := range ms {
		if m < 0 || m > 1 {
			t.Errorf("metric[%d] = %v", i, m)
		}
	}
}

func TestTableWriteCSV(t *testing.T) {
	tbl := &Table{
		ID:      "X",
		Title:   "demo",
		Headers: []string{"a", "b"},
		Notes:   []string{"caveat"},
	}
	tbl.AddRow("x", 1.5)
	var buf strings.Builder
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\nx,1.500\n# caveat\n"
	if buf.String() != want {
		t.Errorf("csv = %q, want %q", buf.String(), want)
	}
}

func TestAblationsQuick(t *testing.T) {
	tbl, err := Ablations(FigureOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil || v <= 0 || v > 1 {
			t.Errorf("success cell %q", row[1])
		}
	}
}

func TestRobustnessQuick(t *testing.T) {
	tbl, err := Robustness(FigureOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Success under 25% drops must not exceed the lossless run for the
	// same scheme.
	intact, _ := strconv.ParseFloat(tbl.Rows[0][2], 64)
	lossy, _ := strconv.ParseFloat(tbl.Rows[2][2], 64)
	if lossy > intact+0.02 {
		t.Errorf("drops improved success: %v -> %v", intact, lossy)
	}
}

func TestSetupAblationKnobs(t *testing.T) {
	setup := smallSetup(t)
	setup.DisableReplacement = true
	rep, err := Run(setup, engine.SchemeIntentional)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplacementMoves != 0 {
		t.Errorf("replacement ran despite DisableReplacement: %d", rep.ReplacementMoves)
	}
	setup2 := smallSetup(t)
	setup2.UtilityFloor = 0.9
	if _, err := Run(setup2, engine.SchemeIntentional); err != nil {
		t.Fatal(err)
	}
}

func TestEpidemicSchemeRegistered(t *testing.T) {
	rep, err := Run(smallSetup(t), engine.SchemeEpidemic)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QueriesIssued == 0 {
		t.Error("epidemic issued no queries")
	}
}

func TestForEachCellOrderAndErrors(t *testing.T) {
	out := make([]int, 50)
	if err := forEachCell(50, func(i int) error {
		out[i] = i * 2
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
	wantErr := errStop
	if err := forEachCell(10, func(i int) error {
		if i == 3 {
			return wantErr
		}
		return nil
	}); err != wantErr {
		t.Errorf("err = %v, want %v", err, wantErr)
	}
	if err := forEachCell(0, func(int) error { return nil }); err != nil {
		t.Errorf("empty: %v", err)
	}
}

var errStop = &stopError{}

type stopError struct{}

func (*stopError) Error() string { return "stop" }

func TestDelayBreakdownQuick(t *testing.T) {
	tbl, err := DelayBreakdown(FigureOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// With more NCLs the query-to-NCL part must shrink (Sec. V-E).
	k1, _ := strconv.ParseFloat(tbl.Rows[0][1], 64)
	k5, _ := strconv.ParseFloat(tbl.Rows[1][1], 64)
	if !(k5 < k1) {
		t.Errorf("query->NCL part did not shrink with K: %v -> %v", k1, k5)
	}
}

func TestRoutingComparisonQuick(t *testing.T) {
	tbl, err := RoutingComparison(FigureOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Epidemic (row 2) must beat DirectDelivery (row 0) on delivery.
	direct, _ := strconv.ParseFloat(tbl.Rows[0][1], 64)
	epi, _ := strconv.ParseFloat(tbl.Rows[2][1], 64)
	if epi <= direct {
		t.Errorf("epidemic %.3f <= direct %.3f", epi, direct)
	}
}

func TestCrossTraceQuick(t *testing.T) {
	tbl, err := CrossTrace(FigureOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 { // 2 traces x 2 schemes
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// On each trace the intentional scheme (even rows) must beat NoCache
	// (odd rows).
	for i := 0; i < len(tbl.Rows); i += 2 {
		ours, _ := strconv.ParseFloat(tbl.Rows[i][3], 64)
		noc, _ := strconv.ParseFloat(tbl.Rows[i+1][3], 64)
		if ours <= noc {
			t.Errorf("row %d: intentional %.3f <= NoCache %.3f", i, ours, noc)
		}
	}
}

func TestRWPComparisonQuick(t *testing.T) {
	tbl, err := RWPComparison(FigureOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	ours, _ := strconv.ParseFloat(tbl.Rows[0][1], 64)
	noc, _ := strconv.ParseFloat(tbl.Rows[1][1], 64)
	if ours <= noc {
		t.Errorf("intentional %.3f <= NoCache %.3f under RWP mobility", ours, noc)
	}
}
