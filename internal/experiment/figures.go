package experiment

import (
	"fmt"
	"sort"

	"dtncache/internal/engine"
	"dtncache/internal/knowledge"
	"dtncache/internal/mathx"
	"dtncache/internal/metrics"
	"dtncache/internal/scheme"
	"dtncache/internal/trace"
	"dtncache/internal/workload"
)

// FigureOptions tune how much work the figure regenerators do. The zero
// value reproduces the paper's full parameter ranges; Scale trades
// sweep-point density and repetitions for runtime (used by the
// benchmarks).
type FigureOptions struct {
	// Seed drives trace generation and simulation randomness.
	Seed int64
	// Repeats averages each cell over this many seeds (default 1).
	Repeats int
	// Quick reduces sweeps to three points per axis and two schemes
	// where applicable (benchmark mode).
	Quick bool
	// FaultChurnPerDay collapses the Degradation sweep's fault-intensity
	// axis to {0, this value}: expected crashes per node per day
	// (0 keeps the full sweep).
	FaultChurnPerDay float64
	// FaultDowntimeSec overrides the Degradation sweep's mean downtime
	// per crash (0 keeps the default).
	FaultDowntimeSec float64
}

func (o FigureOptions) normalized() FigureOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Repeats < 1 {
		o.Repeats = 1
	}
	return o
}

const (
	hour = 3600.0
	day  = 86400.0
)

// Table1 regenerates Table I: the summary statistics of the four traces
// (here: of their calibrated synthetic stand-ins).
func Table1(o FigureOptions) (*Table, error) {
	o = o.normalized()
	t := &Table{
		ID:    "Table I",
		Title: "Trace summary (synthetic stand-ins calibrated to the paper's Table I)",
		Headers: []string{"Trace", "Network type", "Devices", "Contacts",
			"Duration (days)", "Granularity (s)", "Pairwise freq (/day)"},
		Notes: []string{
			"contacts are calibrated to the published totals; pairwise frequency is derived as contacts/(pairs*days)",
		},
	}
	types := map[trace.Preset]string{
		trace.Infocom05: "Bluetooth", trace.Infocom06: "Bluetooth",
		trace.MITReality: "Bluetooth", trace.UCSD: "WiFi",
	}
	for _, p := range trace.Presets() {
		tr, err := trace.GeneratePreset(p, o.Seed)
		if err != nil {
			return nil, err
		}
		s := tr.ComputeStats()
		t.AddRow(string(p), types[p], s.Nodes, s.Contacts, s.DurationDays,
			s.GranularitySec, fmt.Sprintf("%.3g", s.PairwiseFreqDay))
	}
	return t, nil
}

// Fig4 regenerates Fig. 4: the distribution of NCL selection metric
// values per trace, demonstrating the skew that makes NCL selection
// meaningful. For each trace it reports decile values of the metric and
// the top-node/median ratio.
func Fig4(o FigureOptions) (*Table, error) {
	o = o.normalized()
	t := &Table{
		ID:    "Fig. 4",
		Title: "NCL selection metric distribution (deciles of C_i, plus skew)",
		Headers: []string{"Trace", "T", "min", "p25", "median", "p75",
			"p90", "max", "max/median"},
	}
	for _, p := range trace.Presets() {
		tr, err := trace.GeneratePreset(p, o.Seed)
		if err != nil {
			return nil, err
		}
		metricsVals, err := NCLMetrics(tr, scheme.DefaultMetricT(string(p)))
		if err != nil {
			return nil, err
		}
		sorted := append([]float64(nil), metricsVals...)
		sort.Float64s(sorted)
		med := mathx.Percentile(sorted, 0.5)
		skew := 0.0
		if med > 0 {
			skew = sorted[len(sorted)-1] / med
		}
		t.AddRow(string(p), fmtDuration(scheme.DefaultMetricT(string(p))),
			sorted[0], mathx.Percentile(sorted, 0.25), med,
			mathx.Percentile(sorted, 0.75), mathx.Percentile(sorted, 0.9),
			sorted[len(sorted)-1], skew)
	}
	return t, nil
}

// NCLMetrics computes the NCL selection metric C_i (Eq. 3) for every
// node of the trace, using the whole trace for rate estimation as in
// Sec. IV-B. The raw (unmerged) contact list feeds the knowledge
// builder, matching the offline analysis convention (the in-simulation
// estimator counts merged contacts instead).
func NCLMetrics(tr *trace.Trace, metricT float64) ([]float64, error) {
	pr := knowledge.NewProvider(knowledge.Params{
		Nodes:   tr.Nodes,
		MetricT: metricT,
	}, tr.Contacts)
	return pr.At(tr.Duration).Metrics(), nil
}

// Fig7 regenerates Fig. 7: the sigmoid response probability of Eq. (4)
// with the scheme's p_min and p_max (0.45, 0.8) and T_q = 10 hours.
func Fig7(FigureOptions) (*Table, error) {
	sig, err := mathx.NewResponseSigmoid(scheme.PMin, scheme.PMax, 10*hour)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Fig. 7",
		Title:   fmt.Sprintf("Probability for deciding data response (Eq. 4, pmin=%g pmax=%g Tq=10h)", scheme.PMin, scheme.PMax),
		Headers: []string{"remaining time (h)", "p_R"},
	}
	for h := 0.0; h <= 10.0001; h += 1 {
		t.AddRow(h, sig.Prob(h*hour))
	}
	return t, nil
}

// Fig9 regenerates Fig. 9: (a) how the average data lifetime T_L
// controls the amount of data in the network, and (b) the Zipf query
// pmf for several exponents.
func Fig9(o FigureOptions) (*Table, *Table, error) {
	o = o.normalized()
	tr, err := trace.GeneratePreset(trace.MITReality, o.Seed)
	if err != nil {
		return nil, nil, err
	}
	a := &Table{
		ID:      "Fig. 9a",
		Title:   "Data volume vs average lifetime T_L (MIT Reality, p_G = 0.2)",
		Headers: []string{"T_L", "items generated", "mean live items"},
	}
	lifetimes := []float64{12 * hour, 3 * day, 7 * day, 30 * day, 90 * day}
	if o.Quick {
		lifetimes = []float64{12 * hour, 7 * day, 90 * day}
	}
	for _, tl := range lifetimes {
		w, err := workload.Generate(workload.Config{
			Nodes: tr.Nodes, GenProb: 0.2, AvgLifetime: tl,
			AvgSizeBits: 100e6, ZipfExponent: 1,
			Start: tr.Duration / 2, End: tr.Duration, Seed: o.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		a.AddRow(fmtDuration(tl), len(w.Data), w.MeanLiveItems(200))
	}
	b := &Table{
		ID:      "Fig. 9b",
		Title:   "Zipf query distribution P_j (Eq. 8, M = 20)",
		Headers: []string{"rank j", "s=0.5", "s=0.8", "s=1.0", "s=1.2"},
	}
	exps := []float64{0.5, 0.8, 1.0, 1.2}
	zipfs := make([]*mathx.Zipf, len(exps))
	for i, s := range exps {
		z, err := mathx.NewZipf(20, s)
		if err != nil {
			return nil, nil, err
		}
		zipfs[i] = z
	}
	for j := 1; j <= 10; j++ {
		b.AddRow(j, zipfs[0].P(j), zipfs[1].P(j), zipfs[2].P(j), zipfs[3].P(j))
	}
	return a, b, nil
}

// schemeSet picks the scheme list for comparison figures.
func schemeSet(quick bool) []string {
	if quick {
		return []string{engine.SchemeIntentional, engine.SchemeNoCache}
	}
	return engine.SchemeNames()
}

// Fig10 regenerates Fig. 10: data access performance vs average data
// lifetime T_L on the MIT Reality trace (K = 8, s = 1, s_avg = 100 Mb).
// Columns (a) successful ratio, (b) mean access delay, (c) caching
// overhead, one row per (T_L, scheme).
func Fig10(o FigureOptions) (*Table, error) {
	o = o.normalized()
	tr, err := trace.GeneratePreset(trace.MITReality, o.Seed)
	if err != nil {
		return nil, err
	}
	lifetimes := []float64{12 * hour, 3 * day, 7 * day, 30 * day, 90 * day}
	if o.Quick {
		lifetimes = []float64{12 * hour, 7 * day, 90 * day}
	}
	t := &Table{
		ID:    "Fig. 10",
		Title: "Performance vs data lifetime T_L (MIT Reality, K=8, s_avg=100Mb)",
		Headers: []string{"T_L", "scheme", "success ratio", "delay (h)",
			"copies/item"},
	}
	names := schemeSet(o.Quick)
	type cell struct {
		tl   float64
		name string
	}
	var cells []cell
	for _, tl := range lifetimes {
		for _, name := range names {
			cells = append(cells, cell{tl, name})
		}
	}
	kb := SharedKnowledge(tr, 0)
	reports := make([]metrics.Report, len(cells))
	if err := forEachCell(len(cells), func(i int) error {
		rep, err := RunAveraged(engine.Config{
			Trace: tr, AvgLifetime: cells[i].tl, K: 8, Seed: o.Seed,
			Knowledge: kb,
		}, cells[i].name, o.Repeats)
		reports[i] = rep
		return err
	}); err != nil {
		return nil, err
	}
	for i, c := range cells {
		t.AddRow(fmtDuration(c.tl), c.name, reports[i].SuccessRatio,
			reports[i].MeanDelaySec/hour, reports[i].MeanCopies)
	}
	return t, nil
}

// Fig11 regenerates Fig. 11: data access performance vs average data
// size s_avg on the MIT Reality trace (K = 8, T_L = 1 week).
func Fig11(o FigureOptions) (*Table, error) {
	o = o.normalized()
	tr, err := trace.GeneratePreset(trace.MITReality, o.Seed)
	if err != nil {
		return nil, err
	}
	sizes := []float64{20e6, 50e6, 100e6, 150e6, 200e6}
	if o.Quick {
		sizes = []float64{20e6, 100e6, 200e6}
	}
	t := &Table{
		ID:    "Fig. 11",
		Title: "Performance vs data size s_avg (MIT Reality, K=8, T_L=1wk)",
		Headers: []string{"s_avg (Mb)", "scheme", "success ratio",
			"delay (h)", "copies/item"},
	}
	names := schemeSet(o.Quick)
	type cell struct {
		sz   float64
		name string
	}
	var cells []cell
	for _, sz := range sizes {
		for _, name := range names {
			cells = append(cells, cell{sz, name})
		}
	}
	kb := SharedKnowledge(tr, 0)
	reports := make([]metrics.Report, len(cells))
	if err := forEachCell(len(cells), func(i int) error {
		rep, err := RunAveraged(engine.Config{
			Trace: tr, AvgSizeBits: cells[i].sz, K: 8, Seed: o.Seed,
			Knowledge: kb,
		}, cells[i].name, o.Repeats)
		reports[i] = rep
		return err
	}); err != nil {
		return nil, err
	}
	for i, c := range cells {
		t.AddRow(c.sz/1e6, c.name, reports[i].SuccessRatio,
			reports[i].MeanDelaySec/hour, reports[i].MeanCopies)
	}
	return t, nil
}

// Fig12 regenerates Fig. 12: the cache-replacement comparison (ours vs
// FIFO, LRU, Greedy-Dual-Size) vs data size on MIT Reality, including
// the replacement overhead of Fig. 12(c), reported per generated data
// item.
func Fig12(o FigureOptions) (*Table, error) {
	o = o.normalized()
	tr, err := trace.GeneratePreset(trace.MITReality, o.Seed)
	if err != nil {
		return nil, err
	}
	sizes := []float64{20e6, 50e6, 100e6, 150e6, 200e6}
	names := engine.ReplacementNames()
	if o.Quick {
		sizes = []float64{50e6, 200e6}
		names = []string{engine.SchemeIntentional, engine.SchemeIntentionalLRU}
	}
	t := &Table{
		ID:    "Fig. 12",
		Title: "Cache replacement strategies vs data size (MIT Reality, T_L=1wk)",
		Headers: []string{"s_avg (Mb)", "replacement", "success ratio",
			"delay (h)", "moves/item"},
	}
	type cell struct {
		sz   float64
		name string
	}
	var cells []cell
	for _, sz := range sizes {
		for _, name := range names {
			cells = append(cells, cell{sz, name})
		}
	}
	kb := SharedKnowledge(tr, 0)
	reports := make([]metrics.Report, len(cells))
	if err := forEachCell(len(cells), func(i int) error {
		rep, err := RunAveraged(engine.Config{
			Trace: tr, AvgSizeBits: cells[i].sz, K: 8, Seed: o.Seed,
			Knowledge: kb,
		}, cells[i].name, o.Repeats)
		reports[i] = rep
		return err
	}); err != nil {
		return nil, err
	}
	for i, c := range cells {
		// Normalize replacement overhead by the number of data items the
		// workload generated.
		items, err := workloadSize(tr, 7*day, c.sz, o.Seed)
		if err != nil {
			return nil, err
		}
		moves := 0.0
		if items > 0 {
			moves = float64(reports[i].ReplacementMoves) / float64(items) / float64(o.Repeats)
		}
		t.AddRow(c.sz/1e6, c.name, reports[i].SuccessRatio,
			reports[i].MeanDelaySec/hour, moves)
	}
	return t, nil
}

func workloadSize(tr *trace.Trace, tl, sz float64, seed int64) (int, error) {
	w, err := workload.Generate(workload.Config{
		Nodes: tr.Nodes, GenProb: 0.2, AvgLifetime: tl, AvgSizeBits: sz,
		ZipfExponent: 1, Start: tr.Duration / 2, End: tr.Duration, Seed: seed,
	})
	if err != nil {
		return 0, err
	}
	return len(w.Data), nil
}

// Fig13 regenerates Fig. 13: the impact of the number of NCLs K on the
// Infocom06 trace (T_L = 3 hours) under three buffer conditions.
func Fig13(o FigureOptions) (*Table, error) {
	o = o.normalized()
	tr, err := trace.GeneratePreset(trace.Infocom06, o.Seed)
	if err != nil {
		return nil, err
	}
	ks := []int{1, 2, 3, 4, 5, 6, 8, 10}
	buffers := []struct {
		label    string
		min, max float64
	}{
		{"tight (100-300Mb)", 100e6, 300e6},
		{"default (200-600Mb)", 200e6, 600e6},
		{"loose (400-1200Mb)", 400e6, 1200e6},
	}
	if o.Quick {
		ks = []int{1, 3, 5, 10}
		buffers = buffers[1:2]
	}
	t := &Table{
		ID:    "Fig. 13",
		Title: "Impact of NCL count K (Infocom06, T_L=3h)",
		Headers: []string{"buffers", "K", "success ratio", "delay (h)",
			"copies/item"},
	}
	type cell struct {
		label    string
		min, max float64
		k        int
	}
	var cells []cell
	for _, b := range buffers {
		for _, k := range ks {
			cells = append(cells, cell{b.label, b.min, b.max, k})
		}
	}
	kb := SharedKnowledge(tr, 0)
	reports := make([]metrics.Report, len(cells))
	if err := forEachCell(len(cells), func(i int) error {
		rep, err := RunAveraged(engine.Config{
			Trace: tr, AvgLifetime: 3 * hour, K: cells[i].k, Seed: o.Seed,
			BufferMinBits: cells[i].min, BufferMaxBits: cells[i].max,
			Knowledge: kb,
		}, engine.SchemeIntentional, o.Repeats)
		reports[i] = rep
		return err
	}); err != nil {
		return nil, err
	}
	for i, c := range cells {
		t.AddRow(c.label, c.k, reports[i].SuccessRatio,
			reports[i].MeanDelaySec/hour, reports[i].MeanCopies)
	}
	return t, nil
}

func fmtDuration(sec float64) string {
	switch {
	case sec >= day:
		return fmt.Sprintf("%gd", sec/day)
	case sec >= hour:
		return fmt.Sprintf("%gh", sec/hour)
	default:
		return fmt.Sprintf("%gs", sec)
	}
}
