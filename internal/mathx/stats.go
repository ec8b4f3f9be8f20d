package mathx

import (
	"math"
	"sort"
)

func powImpl(x, y float64) float64 { return math.Pow(x, y) }

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
	P90    float64
}

// Summarize computes descriptive statistics; a nil/empty input yields the
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	var sum, sq float64
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(len(sorted))
	for _, x := range sorted {
		d := x - mean
		sq += d * d
	}
	std := 0.0
	if len(sorted) > 1 {
		std = math.Sqrt(sq / float64(len(sorted)-1))
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		Std:    std,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: Percentile(sorted, 0.5),
		P90:    Percentile(sorted, 0.9),
	}
}

// Percentile returns the p-quantile (p in [0,1]) of an ascending-sorted
// sample using linear interpolation. An empty sample yields 0.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Online accumulates a running mean (Welford's update) without storing
// the sample. The zero value is ready to use.
type Online struct {
	n    int
	mean float64
}

// Add incorporates one observation.
func (o *Online) Add(x float64) {
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
}

// N returns the number of observations.
func (o *Online) N() int { return o.n }

// Mean returns the running mean (0 if empty).
func (o *Online) Mean() float64 { return o.mean }
