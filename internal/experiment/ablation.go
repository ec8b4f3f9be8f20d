package experiment

import (
	"dtncache/internal/engine"
	"dtncache/internal/fault"
	"dtncache/internal/knowledge"
	"dtncache/internal/metrics"
	"dtncache/internal/routing"
	"dtncache/internal/scheme"
	"dtncache/internal/trace"
)

// ablationVariant is one row of the Ablations table.
type ablationVariant struct {
	label  string
	scheme string
	mutate func(*engine.Config)
}

// Ablations quantifies the contribution of each design choice of the
// intentional caching scheme that DESIGN.md calls out, on the MIT
// Reality trace with the paper's default parameters:
//
//   - probabilistic response mode (Sec. V-C): global p_CR vs the sigmoid
//     of Eq. (4) vs always replying;
//   - Algorithm 1's Bernoulli selection vs the plain Eq. (7) knapsack;
//   - the Eq. (6) popularity window (remaining lifetime vs the literal
//     t_e - t_1 reading);
//   - cache replacement disabled entirely;
//   - the Epidemic flooding reference.
func Ablations(o FigureOptions) (*Table, error) {
	o = o.normalized()
	preset := trace.MITReality
	tl := 7 * day
	if o.Quick {
		preset = trace.Infocom05
		tl = 3 * hour
	}
	tr, err := trace.GeneratePreset(preset, o.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Ablations",
		Title: "Design-choice ablations (" + string(preset) + ", paper defaults)",
		Headers: []string{"variant", "success ratio", "delay (h)",
			"copies/item", "redundant", "data (Gb)"},
		Notes: []string{
			"'baseline' = sigmoid response, Algorithm 1 on, remaining-lifetime popularity, replacement on",
		},
	}
	variants := []ablationVariant{
		{"baseline", engine.SchemeIntentional, func(*engine.Config) {}},
		{"response: global p_CR", engine.SchemeIntentional, func(s *engine.Config) { s.Response = scheme.ResponseGlobal }},
		{"response: always", engine.SchemeIntentional, func(s *engine.Config) { s.Response = scheme.ResponseAlways }},
		{"Algorithm 1 off (pure knapsack)", engine.SchemeIntentional, func(s *engine.Config) { s.DisableProbabilisticSelection = true }},
		{"Eq.6 literal (t_e - t_1)", engine.SchemeIntentional, func(s *engine.Config) { s.PopularityFromFirst = true }},
		{"replacement off", engine.SchemeIntentional, func(s *engine.Config) { s.DisableReplacement = true }},
		{"utility floor 0.5", engine.SchemeIntentional, func(s *engine.Config) { s.UtilityFloor = 0.5 }},
		{"NCLs by degree", engine.SchemeIntentional, func(s *engine.Config) { s.NCLSelection = scheme.NCLByDegree }},
		{"NCLs by contact count", engine.SchemeIntentional, func(s *engine.Config) { s.NCLSelection = scheme.NCLByContacts }},
		{"NCLs random", engine.SchemeIntentional, func(s *engine.Config) { s.NCLSelection = scheme.NCLRandom }},
		{"query spray L=4", engine.SchemeIntentional, func(s *engine.Config) { s.QuerySprayCopies = 4 }},
		{"per-node interests", engine.SchemeIntentional, func(s *engine.Config) { s.PerNodeInterests = true }},
		{"Epidemic flooding reference", engine.SchemeEpidemic, func(*engine.Config) {}},
	}
	if o.Quick {
		variants = variants[:3]
	}
	kb := SharedKnowledge(tr, 0)
	reports := make([]metrics.Report, len(variants))
	if err := forEachCell(len(variants), func(i int) error {
		setup := engine.Config{Trace: tr, AvgLifetime: tl, K: 8, Seed: o.Seed, Knowledge: kb}
		variants[i].mutate(&setup)
		rep, err := RunAveraged(setup, variants[i].scheme, o.Repeats)
		reports[i] = rep
		return err
	}); err != nil {
		return nil, err
	}
	for i, v := range variants {
		t.AddRow(v.label, reports[i].SuccessRatio, reports[i].MeanDelaySec/hour,
			reports[i].MeanCopies, reports[i].RedundantDeliveries, reports[i].DataBits/1e9)
	}
	return t, nil
}

// Robustness sweeps transfer failure injection: every transfer
// independently fails with the given probability even when the contact
// is long enough, exercising the protocol's tolerance to lossy links.
func Robustness(o FigureOptions) (*Table, error) {
	o = o.normalized()
	preset := trace.MITReality
	tl := 7 * day
	if o.Quick {
		preset = trace.Infocom05
		tl = 3 * hour
	}
	tr, err := trace.GeneratePreset(preset, o.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Robustness",
		Title: "Failure injection: per-transfer drop probability (" + string(preset) + ")",
		Headers: []string{"drop prob", "scheme", "success ratio",
			"delay (h)"},
	}
	probs := []float64{0, 0.1, 0.25, 0.5}
	if o.Quick {
		probs = []float64{0, 0.25}
	}
	schemes := []string{engine.SchemeIntentional, engine.SchemeNoCache}
	type cell struct {
		p    float64
		name string
	}
	var cells []cell
	for _, p := range probs {
		for _, name := range schemes {
			cells = append(cells, cell{p, name})
		}
	}
	kb := SharedKnowledge(tr, 0)
	reports := make([]metrics.Report, len(cells))
	if err := forEachCell(len(cells), func(i int) error {
		rep, err := RunAveraged(engine.Config{
			Trace: tr, AvgLifetime: tl, K: 8, Seed: o.Seed,
			Fault: fault.Config{KillProb: cells[i].p}, Knowledge: kb,
		}, cells[i].name, o.Repeats)
		reports[i] = rep
		return err
	}); err != nil {
		return nil, err
	}
	for i, c := range cells {
		t.AddRow(c.p, c.name, reports[i].SuccessRatio, reports[i].MeanDelaySec/hour)
	}
	return t, nil
}

// DelayBreakdown regenerates the qualitative analysis of Sec. V-E: the
// access delay of the intentional scheme decomposes into (i) the time
// for the query to reach a central node, (ii) the time for the central
// node's broadcast to reach a caching node that responds, and (iii) the
// time for the data to return. The paper predicts that growing K
// shortens parts (i) and (iii) (NCLs are nearer to everyone) while
// shortening the broadcast part only until caching disperses.
func DelayBreakdown(o FigureOptions) (*Table, error) {
	o = o.normalized()
	tr, err := trace.GeneratePreset(trace.Infocom06, o.Seed)
	if err != nil {
		return nil, err
	}
	ks := []int{1, 2, 3, 5, 8}
	if o.Quick {
		ks = []int{1, 5}
	}
	t := &Table{
		ID:    "Delay breakdown",
		Title: "Sec. V-E access-delay decomposition vs K (Infocom06, T_L=3h)",
		Headers: []string{"K", "query->NCL (h)", "broadcast (h)",
			"reply (h)", "total (h)", "queries"},
	}
	kb := SharedKnowledge(tr, 0)
	reports := make([]metrics.Report, len(ks))
	if err := forEachCell(len(ks), func(i int) error {
		rep, err := RunAveraged(engine.Config{
			Trace: tr, AvgLifetime: 3 * hour, K: ks[i], Seed: o.Seed,
			Knowledge: kb,
		}, engine.SchemeIntentional, o.Repeats)
		reports[i] = rep
		return err
	}); err != nil {
		return nil, err
	}
	for i, k := range ks {
		p := reports[i].MeanPhaseSec
		t.AddRow(k, p[0]/hour, p[1]/hour, p[2]/hour,
			(p[0]+p[1]+p[2])/hour, reports[i].PhaseSamples)
	}
	return t, nil
}

// RoutingComparison evaluates the classic DTN unicast forwarding
// strategies on a preset trace — the substrate the caching paper builds
// on (Sec. II): delivery ratio, delay, and transmissions per delivered
// message. The gradient strategy uses the paper's opportunistic-path
// weight (Sec. V-A) as its relay score.
func RoutingComparison(o FigureOptions) (*Table, error) {
	o = o.normalized()
	preset := trace.Infocom05
	lifetime := 8 * hour
	if o.Quick {
		lifetime = 4 * hour
	}
	tr, err := trace.GeneratePreset(preset, o.Seed)
	if err != nil {
		return nil, err
	}
	// Whole-trace path knowledge from raw contacts, as in Sec. IV-B; the
	// gradient relay score reads the snapshot's precomputed weight
	// matrix (safe under the parallel strategy evaluation below).
	metricT := engine.DefaultMetricT(string(preset))
	snap := knowledge.NewProvider(knowledge.Params{
		Nodes:   tr.Nodes,
		MetricT: metricT,
	}, tr.Contacts).At(tr.Duration)
	strategies := []routing.Strategy{
		routing.DirectDelivery{},
		routing.FirstContact{},
		routing.Epidemic{},
		routing.SprayAndWait{},
		routing.NewPRoPHET(tr.Nodes),
		&routing.Gradient{Score: snap.MetricWeight},
	}
	if o.Quick {
		strategies = strategies[:3]
	}
	t := &Table{
		ID:    "Routing",
		Title: "DTN unicast forwarding strategies (" + string(preset) + ")",
		Headers: []string{"strategy", "delivery ratio", "delay (h)",
			"tx/delivery"},
		Notes: []string{
			"gradient = the paper's opportunistic-path-weight relay metric (Sec. V-A)",
		},
	}
	results := make([]routing.Result, len(strategies))
	if err := forEachCell(len(strategies), func(i int) error {
		res, err := routing.Evaluate(tr, strategies[i], routing.EvalConfig{
			Messages: 400, LifetimeSec: lifetime, Seed: o.Seed,
		})
		results[i] = res
		return err
	}); err != nil {
		return nil, err
	}
	for _, res := range results {
		t.AddRow(res.Strategy, res.DeliveryRatio, res.MeanDelaySec/hour,
			res.TransmissionsPerDelivery)
	}
	return t, nil
}

// CrossTrace runs the five comparison schemes on all four trace presets
// (the paper evaluates only Infocom06 and MIT Reality), checking that
// the intentional scheme's advantage generalizes across contact
// environments. Lifetimes are scaled to each trace's tempo. Presets
// run one after another, so only one preset's trace and shared
// knowledge provider are alive at a time.
func CrossTrace(o FigureOptions) (*Table, error) {
	o = o.normalized()
	type env struct {
		preset trace.Preset
		tl     float64
	}
	envs := []env{
		{trace.Infocom05, 3 * hour},
		{trace.Infocom06, 3 * hour},
		{trace.MITReality, 7 * day},
		{trace.UCSD, 7 * day},
	}
	names := engine.SchemeNames()
	if o.Quick {
		envs = envs[:2]
		names = []string{engine.SchemeIntentional, engine.SchemeNoCache}
	}
	t := &Table{
		ID:    "Cross-trace",
		Title: "Scheme comparison across all four trace presets",
		Headers: []string{"trace", "T_L", "scheme", "success ratio",
			"delay (h)", "copies/item"},
	}
	for _, e := range envs {
		tr, err := trace.GeneratePreset(e.preset, o.Seed)
		if err != nil {
			return nil, err
		}
		shared := SharedKnowledge(tr, 0)
		reports := make([]metrics.Report, len(names))
		if err := forEachCell(len(names), func(i int) error {
			rep, err := RunAveraged(engine.Config{
				Trace: tr, AvgLifetime: e.tl, K: 8,
				Seed: o.Seed, Knowledge: shared,
			}, names[i], o.Repeats)
			reports[i] = rep
			return err
		}); err != nil {
			return nil, err
		}
		for i, name := range names {
			t.AddRow(string(e.preset), fmtDuration(e.tl), name,
				reports[i].SuccessRatio, reports[i].MeanDelaySec/hour,
				reports[i].MeanCopies)
		}
	}
	return t, nil
}

// RWPComparison runs the scheme comparison on a random-waypoint
// mobility trace: contacts emerge from geometry instead of the Poisson
// model the paper (and our Table I stand-ins) assume, checking that the
// intentional scheme's advantage is not an artifact of the contact
// model.
func RWPComparison(o FigureOptions) (*Table, error) {
	o = o.normalized()
	cfg := trace.RWPConfig{
		Name: "rwp-city", Nodes: 60, DurationSec: 4 * day,
		ArenaMeters: 2500, RangeMeters: 60,
		SpeedMin: 0.5, SpeedMax: 2.5, PauseMaxSec: 300,
		ScanSec: 60, Seed: o.Seed,
	}
	if o.Quick {
		cfg.Nodes = 25
		cfg.DurationSec = 2 * day
		cfg.ArenaMeters = 1200
	}
	tr, err := trace.GenerateRWP(cfg)
	if err != nil {
		return nil, err
	}
	names := engine.SchemeNames()
	if o.Quick {
		names = []string{engine.SchemeIntentional, engine.SchemeNoCache}
	}
	t := &Table{
		ID:    "RWP",
		Title: "Scheme comparison under random-waypoint mobility",
		Headers: []string{"scheme", "success ratio", "delay (h)",
			"copies/item"},
		Notes: []string{
			"geometric contacts (no Poisson assumption); T_L = 6h, K = 6, s_avg = 20Mb",
		},
	}
	kb := SharedKnowledge(tr, 1800)
	reports := make([]metrics.Report, len(names))
	if err := forEachCell(len(names), func(i int) error {
		rep, err := RunAveraged(engine.Config{
			Trace: tr, MetricT: 1800, AvgLifetime: 6 * hour,
			AvgSizeBits: 20e6, K: 6, Seed: o.Seed,
			BufferMinBits: 50e6, BufferMaxBits: 150e6, Knowledge: kb,
		}, names[i], o.Repeats)
		reports[i] = rep
		return err
	}); err != nil {
		return nil, err
	}
	for i, name := range names {
		t.AddRow(name, reports[i].SuccessRatio,
			reports[i].MeanDelaySec/hour, reports[i].MeanCopies)
	}
	return t, nil
}
