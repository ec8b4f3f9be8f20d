package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("summary = %+v", s)
	}
	if want := math.Sqrt(2.5); math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("std = %v, want %v", s.Std, want)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Summarize must not reorder its input")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20}, {-1, 10}, {2, 40},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestOnlineMatchesSummarize(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		var o Online
		for i, v := range raw {
			xs[i] = float64(v)
			o.Add(xs[i])
		}
		s := Summarize(xs)
		return o.N() == s.N &&
			math.Abs(o.Mean()-s.Mean) < 1e-6*(1+math.Abs(s.Mean))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOnlineEmpty(t *testing.T) {
	var o Online
	if o.N() != 0 || o.Mean() != 0 {
		t.Error("zero-value Online must report zeros")
	}
}
