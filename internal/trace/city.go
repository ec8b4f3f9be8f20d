package trace

import (
	"errors"
	"fmt"
	"sort"

	"dtncache/internal/mathx"
)

// CityConfig parameterizes the city-scale generator.
//
// Generate (gen.go) walks every node pair, which is fine for the
// hundred-node Table I presets but O(n²) — hopeless at 100k nodes. The
// city generator samples the *aggregate* contact process instead: one
// nonhomogeneous Poisson stream of contact events at the calibrated
// total rate, each event assigned to a node pair by weighted sampling
// over a power-law community structure. Cost is O(nodes + contacts),
// and events are produced in nondecreasing start order, so the
// generator can stream straight into a chunked writer without ever
// materializing the trace.
type CityConfig struct {
	// Name labels the resulting trace.
	Name string
	// Nodes is the number of devices (must be >= 2).
	Nodes int
	// DurationSec is the trace length in seconds.
	DurationSec float64
	// GranularitySec is the scan period; contact durations are drawn as
	// Granularity + Exp(mean 2*Granularity), like gen.go.
	GranularitySec float64
	// TargetContacts is the expected total contact count.
	TargetContacts int
	// CommunityAlpha is the bounded-Pareto shape for community sizes;
	// smaller values produce a few huge districts among many small
	// ones. Typical: 1.0-2.0.
	CommunityAlpha float64
	// CommunityMin/CommunityMax bound the community size draw.
	CommunityMin, CommunityMax int
	// InterProb is the probability that a contact bridges two
	// communities instead of staying inside one. 0 isolates the
	// communities completely (useful for sparse-knowledge tests).
	InterProb float64
	// ActivityAlpha/ActivityMax shape the per-node bounded-Pareto
	// activity skew, as in GenConfig.
	ActivityAlpha, ActivityMax float64
	// DiurnalAmplitude in [0,1] concentrates contacts in daytime
	// (08:00-20:00), sharing gen.go's intensity profile; the total
	// stays calibrated to TargetContacts.
	DiurnalAmplitude float64
	// Seed drives all randomness; equal configs yield identical traces.
	Seed int64
}

// CityDefaults returns the city preset sized to nodes/contacts: many
// power-law districts, tenfold activity skew, strong diurnal cycle over
// a simulated week.
func CityDefaults(nodes, contacts int) CityConfig {
	return CityConfig{
		Name:             "City",
		Nodes:            nodes,
		DurationSec:      7 * 86400,
		GranularitySec:   120,
		TargetContacts:   contacts,
		CommunityAlpha:   1.2,
		CommunityMin:     8,
		CommunityMax:     nodes/10 + 8,
		InterProb:        0.05,
		ActivityAlpha:    1.5,
		ActivityMax:      10,
		DiurnalAmplitude: 0.8,
		Seed:             1,
	}
}

// Validate checks the configuration.
func (c CityConfig) Validate() error {
	switch {
	case c.Nodes < 2:
		return errors.New("trace: city: needs >= 2 nodes")
	case c.DurationSec <= 0:
		return errors.New("trace: city: duration must be positive")
	case c.GranularitySec <= 0:
		return errors.New("trace: city: granularity must be positive")
	case c.TargetContacts <= 0:
		return errors.New("trace: city: target contact count must be positive")
	case c.CommunityAlpha <= 0:
		return errors.New("trace: city: community alpha must be positive")
	case c.CommunityMin < 2:
		return errors.New("trace: city: community min must be >= 2")
	case c.CommunityMax < c.CommunityMin:
		return errors.New("trace: city: community max below min")
	case c.InterProb < 0 || c.InterProb > 1:
		return errors.New("trace: city: inter-community probability must be in [0,1]")
	case c.ActivityAlpha <= 0:
		return errors.New("trace: city: activity alpha must be positive")
	case c.ActivityMax <= 1:
		return errors.New("trace: city: activity max must exceed 1")
	case c.DiurnalAmplitude < 0 || c.DiurnalAmplitude > 1:
		return errors.New("trace: city: diurnal amplitude must be in [0,1]")
	}
	return nil
}

// cityWorld is the sampled static structure: community layout and
// per-node activity weights, with cumulative arrays for O(log n)
// weighted node draws.
type cityWorld struct {
	cfg      CityConfig
	commOff  []int     // community -> first node ID (len communities+1)
	nodeCum  []float64 // per-node cumulative activity within community order
	commCum  []float64 // community -> cumulative pair-mass weight
	eventRng *mathx.Rand
}

// buildCityWorld draws community sizes from a bounded Pareto until the
// node budget is spent (the last community takes the remainder) and
// assigns contiguous ID ranges, then draws activities and builds the
// sampling tables.
func buildCityWorld(cfg CityConfig) *cityWorld {
	rng := mathx.NewRand(cfg.Seed)
	commRng := rng.Derive("city-communities")
	actRng := rng.Derive("city-activity")

	w := &cityWorld{cfg: cfg, eventRng: rng.Derive("city-events")}
	w.commOff = append(w.commOff, 0)
	for off := 0; off < cfg.Nodes; {
		max := cfg.CommunityMax
		if max > cfg.Nodes-off {
			max = cfg.Nodes - off
		}
		size := max
		if max > cfg.CommunityMin {
			size = int(commRng.Pareto(cfg.CommunityAlpha, float64(cfg.CommunityMin), float64(max)))
		}
		if size < 2 {
			size = 2
		}
		if size > cfg.Nodes-off {
			size = cfg.Nodes - off
		}
		off += size
		w.commOff = append(w.commOff, off)
	}
	// A trailing remainder of one node cannot host intra-community
	// contacts; fold it into the previous community.
	if last := len(w.commOff) - 1; last >= 2 && w.commOff[last]-w.commOff[last-1] < 2 {
		w.commOff = append(w.commOff[:last-1], w.commOff[last])
	}

	w.nodeCum = make([]float64, cfg.Nodes)
	w.commCum = make([]float64, len(w.commOff)-1)
	var commTotal float64
	for c := 0; c+1 < len(w.commOff); c++ {
		lo, hi := w.commOff[c], w.commOff[c+1]
		var sum float64
		for i := lo; i < hi; i++ {
			sum += actRng.Pareto(cfg.ActivityAlpha, 1, cfg.ActivityMax)
			w.nodeCum[i] = sum
		}
		// Pair mass grows with the square of the community's total
		// activity (product-form rates), so big districts dominate.
		commTotal += sum * sum
		w.commCum[c] = commTotal
	}
	return w
}

// communities returns the number of communities drawn.
func (w *cityWorld) communities() int { return len(w.commOff) - 1 }

// drawCommunity picks a community with probability proportional to its
// squared activity mass.
func (w *cityWorld) drawCommunity(rng *mathx.Rand) int {
	total := w.commCum[len(w.commCum)-1]
	x := rng.Float64() * total
	return sort.SearchFloat64s(w.commCum, x)
}

// drawNode picks a node inside community c, weighted by activity.
func (w *cityWorld) drawNode(rng *mathx.Rand, c int) NodeID {
	lo, hi := w.commOff[c], w.commOff[c+1]
	base := 0.0
	if lo > 0 {
		base = w.nodeCum[lo-1]
	}
	x := base + rng.Float64()*(w.nodeCum[hi-1]-base)
	i := lo + sort.SearchFloat64s(w.nodeCum[lo:hi], x)
	if i >= hi {
		i = hi - 1
	}
	return NodeID(i)
}

// drawPair samples one contact's endpoints: intra-community by default,
// bridging two communities with probability InterProb.
func (w *cityWorld) drawPair(rng *mathx.Rand) (NodeID, NodeID) {
	for {
		var a, b NodeID
		if w.communities() > 1 && rng.Bernoulli(w.cfg.InterProb) {
			ca := w.drawCommunity(rng)
			cb := w.drawCommunity(rng)
			a, b = w.drawNode(rng, ca), w.drawNode(rng, cb)
		} else {
			c := w.drawCommunity(rng)
			a, b = w.drawNode(rng, c), w.drawNode(rng, c)
		}
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		return a, b
	}
}

// StreamCity runs the city generator, calling emit for every contact in
// nondecreasing start order. It never materializes the trace: memory is
// O(nodes) regardless of contact count.
func StreamCity(cfg CityConfig, emit func(Contact) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	w := buildCityWorld(cfg)
	rng := w.eventRng

	// Aggregate thinned Poisson process, exactly the shape of
	// appendPairContacts but over the whole city at once: candidates at
	// the peak total rate, accepted with the time-of-day intensity.
	meanF := 1 - cfg.DiurnalAmplitude/2
	peak := float64(cfg.TargetContacts) / (cfg.DurationSec * meanF)
	for t := rng.Exp(peak); t < cfg.DurationSec; t += rng.Exp(peak) {
		if cfg.DiurnalAmplitude > 0 &&
			rng.Float64() >= diurnalIntensity(cfg.DiurnalAmplitude, t) {
			continue
		}
		a, b := w.drawPair(rng)
		end := t + cfg.GranularitySec + rng.Exp(1/(2*cfg.GranularitySec))
		if end > cfg.DurationSec {
			end = cfg.DurationSec
		}
		if end <= t {
			continue
		}
		if err := emit(Contact{A: a, B: b, Start: t, End: end}); err != nil {
			return err
		}
	}
	return nil
}

// GenerateCity materializes a city trace — the small-scale convenience
// path (tests, presets); city-scale callers stream instead.
func GenerateCity(cfg CityConfig) (*Trace, error) {
	tr := &Trace{
		Name:        cfg.Name,
		Nodes:       cfg.Nodes,
		Duration:    cfg.DurationSec,
		Granularity: cfg.GranularitySec,
	}
	tr.Contacts = make([]Contact, 0, cfg.TargetContacts+cfg.TargetContacts/8)
	err := StreamCity(cfg, func(c Contact) error {
		tr.Contacts = append(tr.Contacts, c)
		return nil
	})
	if err != nil {
		return nil, err
	}
	tr.SortContacts()
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("trace: city: generated invalid trace: %w", err)
	}
	return tr, nil
}
