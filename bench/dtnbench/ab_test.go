package main

import (
	"strings"
	"testing"
)

func seq(base float64, steps ...float64) []float64 {
	out := make([]float64, len(steps))
	for i, s := range steps {
		out[i] = base * (1 + s)
	}
	return out
}

func TestJudge(t *testing.T) {
	steady := []float64{0, 0.01, -0.01, 0.005, -0.005, 0.002, -0.002, 0.008, -0.008, 0}
	faster := make([]float64, len(steady))
	slower := make([]float64, len(steady))
	for i, s := range steady {
		faster[i], slower[i] = s-0.2, s+0.2
	}
	for _, tc := range []struct {
		name         string
		base, change []float64
		higher       bool
		want         string
	}{
		{"20% faster over 10 pairs", seq(10, steady...), seq(10, faster...), false, "improved"},
		{"20% faster over 3 pairs", seq(10, steady[:3]...), seq(10, faster[:3]...), false, "unresolved (fewer than 10 pairs)"},
		{"20% slower", seq(10, steady...), seq(10, slower...), false, "regressed"},
		{"20% slower, higher is better", seq(10, steady...), seq(10, slower...), true, "improved"},
		{"same", seq(10, steady...), seq(10, steady...), false, "within bound"},
		{"noisy base", seq(10, 0, 0.3, -0.3, 0.2, -0.2, 0.25, -0.25, 0.1, -0.1, 0), seq(10, slower...), false, "unresolved (base spread"},
	} {
		got, _, _ := judge(tc.base, tc.change, tc.higher, 0.1)
		if !strings.HasPrefix(got, tc.want) {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
