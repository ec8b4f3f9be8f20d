package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule
// the spread checks in README.md use. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	if len(s) < 2 {
		v := math.NaN()
		if len(s) == 1 {
			v = s[0]
		}
		return v, v, v
	}
	ld, m, n := len(s), len(s)+1, 4
	q := make([]float64, 3)
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of an
// ascending sample: the smallest value with at least q·n values at or
// below it.
func percentile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s[max(0, min(rank(len(s), q), len(s))-1)]
}

// beyond counts the samples of an n-sample set that lie strictly above
// its nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - rank(n, q)
}

// rank is the 1-based nearest rank of the q-quantile of n samples; the
// tolerance keeps binary rounding of q·n (0.9999·100000) off the next rank.
func rank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// tailQuantiles is the ladder tailPercentile climbs.
var tailQuantiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// tailPercentile returns the highest quantile of the ladder that still
// has at least ten samples beyond it, with its value, so a tail is never
// read off a handful of points. ok is false below twenty samples.
func tailPercentile(s []float64) (q, v float64, ok bool) {
	for _, t := range tailQuantiles {
		if beyond(len(s), t) < 10 {
			break
		}
		q, v, ok = t, percentile(s, t), true
	}
	return q, v, ok
}
