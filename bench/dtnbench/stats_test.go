package main

import "testing"

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0].
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{8, 1, 4, 2}, 1.25, 3, 7},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 0.999: 100} {
		if got := percentile(s, q); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
}

// The tail reported is the highest quantile with at least ten samples
// beyond it: p99.9 needs 10000 samples, one fewer falls back to p99.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{19, 0, false},
		{20, 0.5, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
		{15000, 0.999, true},
		{100000, 0.9999, true},
	} {
		s := make([]float64, tc.n)
		for i := range s {
			s[i] = float64(i)
		}
		q, v, ok := tailPercentile(s)
		if ok != tc.ok || q != tc.q {
			t.Errorf("n=%d: tail quantile %v (ok %v), want %v (ok %v)", tc.n, q, ok, tc.q, tc.ok)
			continue
		}
		if ok && beyond(tc.n, q) < 10 {
			t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond(tc.n, q), 100*q)
		}
		if ok && v != percentile(s, q) {
			t.Errorf("n=%d: tail value %v, want %v", tc.n, v, percentile(s, q))
		}
	}
}
