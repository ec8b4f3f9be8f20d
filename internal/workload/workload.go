// Package workload generates the data and query workload of the paper's
// experiment setup (Sec. VI-A):
//
//   - Every period T_L each node that has no live self-generated data
//     creates a new item with probability p_G = 0.2; the item's lifetime
//     is uniform in [0.5, 1.5]·T_L and its size uniform in
//     [0.5, 1.5]·s_avg.
//   - Every T_L/2 each node decides, independently per live data item j,
//     whether to request it with the Zipf probability P_j of Eq. (8);
//     each query carries the finite time constraint T_L/2.
//
// Because generation is independent of the protocols under test, the
// whole workload is materialized up front, which makes runs over
// different caching schemes use byte-identical inputs.
//
//dtn:determinism
package workload

import (
	"errors"
	"fmt"
	"sort"

	"dtncache/internal/mathx"
	"dtncache/internal/trace"
)

// DataID identifies a data item network-wide ("globally unique
// identifier" in Sec. III-C). IDs are dense in creation order.
type DataID int

// DataItem is one generated data item.
type DataItem struct {
	ID       DataID
	Source   trace.NodeID
	SizeBits float64
	Created  float64
	Expires  float64
}

// Expired reports whether the item is expired at time now.
func (d DataItem) Expired(now float64) bool { return now >= d.Expires }

// Live reports whether the item exists and is unexpired at time now.
func (d DataItem) Live(now float64) bool { return now >= d.Created && now < d.Expires }

// QueryID identifies a query.
type QueryID int

// Query is one data request with a finite time constraint.
type Query struct {
	ID        QueryID
	Requester trace.NodeID
	Data      DataID
	Issued    float64
	Deadline  float64
}

// Config parameterizes workload generation.
type Config struct {
	// Nodes is the network size.
	Nodes int
	// GenProb is p_G, the per-period generation probability (paper: 0.2).
	GenProb float64
	// AvgLifetime is T_L in seconds.
	AvgLifetime float64
	// AvgSizeBits is s_avg in bits (paper: 100 Mb default).
	AvgSizeBits float64
	// ZipfExponent is the query-pattern exponent s (paper: 1).
	ZipfExponent float64
	// PerNodeInterests gives every requester its own stable permutation
	// of the Zipf ranks instead of the paper's global popularity order:
	// total demand stays Zipf-shaped but nodes disagree about which data
	// is hot (an extension knob; the paper's model is the default).
	PerNodeInterests bool
	// Start and End bound the generation window (paper: the second half
	// of the trace; the first half is warm-up).
	Start, End float64
	// Seed drives all randomness.
	Seed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return errors.New("workload: need at least one node")
	case c.GenProb < 0 || c.GenProb > 1:
		return errors.New("workload: generation probability must be in [0,1]")
	case c.AvgLifetime <= 0:
		return errors.New("workload: average lifetime must be positive")
	case c.AvgSizeBits <= 0:
		return errors.New("workload: average data size must be positive")
	case c.ZipfExponent < 0:
		return errors.New("workload: zipf exponent must be >= 0")
	case c.End <= c.Start:
		return errors.New("workload: empty generation window")
	}
	return nil
}

// Workload is a fully materialized data and query schedule.
type Workload struct {
	Config  Config
	Data    []DataItem // sorted by Created, ID dense in this order
	Queries []Query    // sorted by Issued, ID dense in this order
}

// Generate materializes the workload for the given configuration.
func Generate(cfg Config) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := mathx.NewRand(cfg.Seed)
	genRng := rng.Derive("datagen")
	queryRng := rng.Derive("query")

	w := &Workload{Config: cfg}

	// Data generation: per node, epochs at Start + k*T_L. A node
	// generates only when its previous item (if any) has expired.
	expiresAt := make([]float64, cfg.Nodes) // 0 = never generated
	for t := cfg.Start; t < cfg.End; t += cfg.AvgLifetime {
		for n := 0; n < cfg.Nodes; n++ {
			if expiresAt[n] > t {
				continue // previous item still live
			}
			if !genRng.Bernoulli(cfg.GenProb) {
				continue
			}
			life := genRng.Uniform(0.5*cfg.AvgLifetime, 1.5*cfg.AvgLifetime)
			size := genRng.Uniform(0.5*cfg.AvgSizeBits, 1.5*cfg.AvgSizeBits)
			item := DataItem{
				ID:       DataID(len(w.Data)),
				Source:   trace.NodeID(n),
				SizeBits: size,
				Created:  t,
				Expires:  t + life,
			}
			w.Data = append(w.Data, item)
			expiresAt[n] = item.Expires
		}
	}

	// Queries: epochs every T_L/2. At each epoch, every node considers
	// each live item (ranked by ascending ID, i.e. creation order) and
	// requests it with the Zipf probability for its rank — or for its
	// node-specific permutation of the rank when PerNodeInterests is on.
	interval := cfg.AvgLifetime / 2
	for t := cfg.Start + interval; t < cfg.End; t += interval {
		live := w.liveAt(t)
		if len(live) == 0 {
			continue
		}
		zipf, err := mathx.NewZipf(len(live), cfg.ZipfExponent)
		if err != nil {
			return nil, err
		}
		for n := 0; n < cfg.Nodes; n++ {
			var perm []int
			if cfg.PerNodeInterests {
				// Derived per node with a stable label, so a node's taste
				// stays consistent across epochs of equal size.
				perm = mathx.NewRand(cfg.Seed).Derive(fmt.Sprintf("interest-%d", n)).Perm(len(live))
			}
			for rank, item := range live {
				if item.Source == trace.NodeID(n) {
					continue // the source trivially has its own data
				}
				effective := rank
				if perm != nil {
					effective = perm[rank]
				}
				if !queryRng.Bernoulli(zipf.P(effective + 1)) {
					continue
				}
				w.Queries = append(w.Queries, Query{
					ID:        QueryID(len(w.Queries)),
					Requester: trace.NodeID(n),
					Data:      item.ID,
					Issued:    t,
					Deadline:  t + interval,
				})
			}
		}
	}
	return w, nil
}

// liveAt returns the items live at time t, in ascending ID order.
func (w *Workload) liveAt(t float64) []DataItem {
	var out []DataItem
	for _, d := range w.Data {
		if d.Live(t) {
			out = append(out, d)
		}
	}
	return out
}

// LiveAt returns the number of live items at time t.
func (w *Workload) LiveAt(t float64) int { return len(w.liveAt(t)) }

// Item returns the data item with the given ID.
func (w *Workload) Item(id DataID) (DataItem, bool) {
	if id < 0 || int(id) >= len(w.Data) {
		return DataItem{}, false
	}
	return w.Data[id], true
}

// MeanLiveItems estimates the time-averaged number of live data items by
// sampling the window at the given number of points.
func (w *Workload) MeanLiveItems(samples int) float64 {
	if samples <= 0 {
		samples = 100
	}
	var sum float64
	span := w.Config.End - w.Config.Start
	for i := 0; i < samples; i++ {
		t := w.Config.Start + span*float64(i)/float64(samples)
		sum += float64(w.LiveAt(t))
	}
	return sum / float64(samples)
}

// SortedCheck verifies the invariants tests rely on: data sorted by
// Created with dense IDs, queries sorted by Issued with dense IDs and
// deadlines after issue times.
func (w *Workload) SortedCheck() error {
	if !sort.SliceIsSorted(w.Data, func(i, j int) bool {
		return w.Data[i].Created < w.Data[j].Created
	}) {
		return errors.New("workload: data not sorted by creation time")
	}
	for i, d := range w.Data {
		if d.ID != DataID(i) {
			return errors.New("workload: data IDs not dense")
		}
		if d.Expires <= d.Created {
			return errors.New("workload: non-positive lifetime")
		}
	}
	if !sort.SliceIsSorted(w.Queries, func(i, j int) bool {
		return w.Queries[i].Issued < w.Queries[j].Issued
	}) {
		return errors.New("workload: queries not sorted by issue time")
	}
	for i, q := range w.Queries {
		if q.ID != QueryID(i) {
			return errors.New("workload: query IDs not dense")
		}
		if q.Deadline <= q.Issued {
			return errors.New("workload: non-positive query constraint")
		}
		if q.Data < 0 || int(q.Data) >= len(w.Data) {
			return errors.New("workload: query references unknown data")
		}
	}
	return nil
}
