package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSigmoidPaperExample(t *testing.T) {
	// Fig. 7 parameters: p_min = 0.45, p_max = 0.8, T_q = 10 hours.
	tq := 10.0 * 3600
	s, err := NewResponseSigmoid(0.45, 0.8, tq)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Prob(0); math.Abs(got-0.45) > 1e-12 {
		t.Errorf("p_R(0) = %v, want 0.45", got)
	}
	if got := s.Prob(tq); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("p_R(T_q) = %v, want 0.8", got)
	}
	// Interior point computed from Eq. (4) directly.
	k1 := 2 * 0.45
	k2 := math.Log(0.8/(2*0.45-0.8)) / tq
	mid := tq / 2
	want := k1 / (1 + math.Exp(-k2*mid))
	if got := s.Prob(mid); math.Abs(got-want) > 1e-12 {
		t.Errorf("p_R(T_q/2) = %v, want %v", got, want)
	}
}

func TestSigmoidRejectsBadParams(t *testing.T) {
	cases := []struct {
		pmin, pmax, tq float64
	}{
		{0.4, 0.8, 10},  // pmin == pmax/2 (k2 diverges)
		{0.3, 0.8, 10},  // pmin < pmax/2
		{0.9, 0.8, 10},  // pmin > pmax
		{0.8, 0.8, 10},  // pmin == pmax
		{0.45, 0.8, 0},  // tq == 0
		{0.45, 0.8, -1}, // tq < 0
		{0.45, 1.2, 10}, // pmax > 1 (and pmin<pmax/2 check bypassed)
		{0.7, 1.2, 10},  // pmax > 1
	}
	for _, c := range cases {
		if _, err := NewResponseSigmoid(c.pmin, c.pmax, c.tq); err == nil {
			t.Errorf("NewResponseSigmoid(%v, %v, %v): want error", c.pmin, c.pmax, c.tq)
		}
	}
}

func TestSigmoidMonotoneAndBounded(t *testing.T) {
	f := func(a, b uint8, t1, t2 uint16) bool {
		pmax := 0.2 + 0.8*float64(a)/255 // (0.2, 1]
		// pmin strictly inside (pmax/2, pmax)
		frac := 0.1 + 0.8*float64(b)/255
		pmin := pmax/2 + frac*(pmax-pmax/2)
		s, err := NewResponseSigmoid(pmin, pmax, 100)
		if err != nil {
			return true // parameters collapsed to an invalid corner; skip
		}
		ta := float64(t1 % 120)
		tb := float64(t2 % 120)
		if ta > tb {
			ta, tb = tb, ta
		}
		pa, pb := s.Prob(ta), s.Prob(tb)
		return pa >= pmin-1e-12 && pb <= pmax+1e-12 && pa <= pb+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
