package mathx

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func mustHypoexp(t *testing.T, rates []float64) *Hypoexp {
	t.Helper()
	h, err := NewHypoexp(rates)
	if err != nil {
		t.Fatalf("NewHypoexp(%v): %v", rates, err)
	}
	return h
}

func TestNewHypoexpRejectsBadRates(t *testing.T) {
	cases := [][]float64{
		nil,
		{},
		{0},
		{-1},
		{1, 0},
		{1, math.NaN()},
		{math.Inf(1)},
	}
	for _, rates := range cases {
		if _, err := NewHypoexp(rates); err == nil {
			t.Errorf("NewHypoexp(%v): want error, got nil", rates)
		}
	}
}

func TestHypoexpSingleHopIsExponential(t *testing.T) {
	h := mustHypoexp(t, []float64{0.5})
	for _, tt := range []float64{0, 0.1, 1, 2, 10} {
		want := 1 - math.Exp(-0.5*tt)
		if got := h.CDF(tt); math.Abs(got-want) > 1e-12 {
			t.Errorf("CDF(%v) = %v, want %v", tt, got, want)
		}
	}
}

func TestHypoexpTwoHopClosedForm(t *testing.T) {
	// For rates a != b: CDF(t) = 1 - (b e^{-at} - a e^{-bt})/(b-a).
	a, b := 1.0, 3.0
	h := mustHypoexp(t, []float64{a, b})
	for _, tt := range []float64{0.1, 0.5, 1, 2, 5} {
		want := 1 - (b*math.Exp(-a*tt)-a*math.Exp(-b*tt))/(b-a)
		if got := h.CDF(tt); math.Abs(got-want) > 1e-10 {
			t.Errorf("CDF(%v) = %v, want %v", tt, got, want)
		}
	}
}

func TestHypoexpEqualRatesIsErlang(t *testing.T) {
	// Sum of r iid Exp(lambda) is Erlang(r, lambda):
	// CDF(t) = 1 - e^{-lt} sum_{n<r} (lt)^n / n!.
	lambda := 2.0
	for r := 2; r <= 5; r++ {
		rates := make([]float64, r)
		for i := range rates {
			rates[i] = lambda
		}
		h := mustHypoexp(t, rates)
		for _, tt := range []float64{0.1, 0.5, 1, 2} {
			lt := lambda * tt
			sum := 0.0
			term := 1.0
			for n := 0; n < r; n++ {
				if n > 0 {
					term *= lt / float64(n)
				}
				sum += term
			}
			want := 1 - math.Exp(-lt)*sum
			if got := h.CDF(tt); math.Abs(got-want) > 1e-9 {
				t.Errorf("r=%d CDF(%v) = %v, want %v", r, tt, got, want)
			}
		}
	}
}

func TestHypoexpClosedFormMatchesUniformization(t *testing.T) {
	h := mustHypoexp(t, []float64{0.3, 1.1, 2.7, 5.9})
	if !h.distinct {
		t.Fatal("expected distinct rates to use the closed form")
	}
	for _, tt := range []float64{0.05, 0.3, 1, 3, 10} {
		cf := h.cdfClosedForm(tt)
		un := h.cdfUniformized(tt)
		if math.Abs(cf-un) > 1e-8 {
			t.Errorf("t=%v: closed form %v vs uniformized %v", tt, cf, un)
		}
	}
}

func TestHypoexpNearEqualRatesStable(t *testing.T) {
	// Rates this close would make the closed-form coefficients ~1e9 with
	// alternating signs; the uniformization fallback must kick in and
	// produce values that match the exactly-equal-rate Erlang closely.
	h := mustHypoexp(t, []float64{1, 1 + 1e-9})
	erlang := mustHypoexp(t, []float64{1, 1})
	for _, tt := range []float64{0.1, 1, 3} {
		got, want := h.CDF(tt), erlang.CDF(tt)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("CDF(%v) = %v, want ~%v", tt, got, want)
		}
	}
}

func TestHypoexpCDFPropertyBounds(t *testing.T) {
	// Property: for arbitrary positive rates and times, CDF stays in [0,1]
	// and is monotone non-decreasing in t.
	f := func(r1, r2, r3 uint16, t1, t2 uint16) bool {
		rates := []float64{
			0.01 + float64(r1%1000)/100,
			0.01 + float64(r2%1000)/100,
			0.01 + float64(r3%1000)/100,
		}
		h, err := NewHypoexp(rates)
		if err != nil {
			return false
		}
		ta := float64(t1%500) / 10
		tb := float64(t2%500) / 10
		if ta > tb {
			ta, tb = tb, ta
		}
		ca, cb := h.CDF(ta), h.CDF(tb)
		return ca >= 0 && cb <= 1 && ca <= cb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHypoexpCDFLimits(t *testing.T) {
	h := mustHypoexp(t, []float64{0.7, 1.9, 4.2})
	if got := h.CDF(0); got != 0 {
		t.Errorf("CDF(0) = %v, want 0", got)
	}
	if got := h.CDF(-1); got != 0 {
		t.Errorf("CDF(-1) = %v, want 0", got)
	}
	if got := h.CDF(1e6); math.Abs(got-1) > 1e-9 {
		t.Errorf("CDF(1e6) = %v, want 1", got)
	}
	if got := h.CDF(math.Inf(1)); got != 1 {
		t.Errorf("CDF(+Inf) = %v, want 1", got)
	}

	// Repeated rates take the uniformized path. Its Poisson sum must run
	// as far past qt as the mass does (a fixed term cap once returned 0
	// at qt = 1.5e5 and 0.51 at qt = 99990), and +Inf is certain
	// absorption, not NaN.
	rep := mustHypoexp(t, []float64{1, 1})
	if rep.distinct {
		t.Fatal("expected repeated rates to use uniformization")
	}
	if got := rep.CDF(0); got != 0 {
		t.Errorf("repeated CDF(0) = %v, want 0", got)
	}
	for _, tt := range []float64{99990, 1.5e5} {
		// ~1e5 Poisson terms each round off; 1e-6 still tells 1 from 0.51.
		if got := rep.CDF(tt); math.Abs(got-1) > 1e-6 {
			t.Errorf("repeated CDF(%v) = %v, want 1", tt, got)
		}
	}
	if got := rep.CDF(math.Inf(1)); got != 1 {
		t.Errorf("repeated CDF(+Inf) = %v, want 1", got)
	}
	// Past uniformizedMaxQT the squaring path takes over, up to q*t
	// beyond 2^63 (an int conversion there is implementation-defined)
	// and past overflow of q*t itself.
	for _, tt := range []float64{1e13, 0x1p63, 1e19, 1e300, math.MaxFloat64} {
		if got := rep.CDF(tt); math.Abs(got-1) > 1e-15 {
			t.Errorf("repeated CDF(%v) = %v, want 1", tt, got)
		}
	}
	big := mustHypoexp(t, []float64{4, 4})
	if got := big.CDF(math.MaxFloat64); math.Abs(got-1) > 1e-15 {
		t.Errorf("repeated CDF(MaxFloat64) with q*t = +Inf: %v, want 1", got)
	}
	if got := rep.CDF(math.NaN()); !math.IsNaN(got) {
		t.Errorf("repeated CDF(NaN) = %v, want NaN", got)
	}
}

func TestHypoexpPDFIntegratesToCDF(t *testing.T) {
	h := mustHypoexp(t, []float64{0.8, 2.5, 1.4})
	// Trapezoidal integration of the PDF should recover the CDF.
	const dt = 1e-3
	acc := 0.0
	prev := h.PDF(0)
	for x := dt; x <= 3.0+dt/2; x += dt {
		cur := h.PDF(x)
		acc += (prev + cur) / 2 * dt
		prev = cur
	}
	if want := h.CDF(3.0); math.Abs(acc-want) > 1e-4 {
		t.Errorf("integral of PDF to 3 = %v, want CDF(3) = %v", acc, want)
	}
}

func TestHypoexpCDFAgainstMonteCarlo(t *testing.T) {
	rates := []float64{0.5, 1.5, 3.0}
	h := mustHypoexp(t, rates)
	r := NewRand(42)
	const n = 200000
	tt := 2.0
	hits := 0
	for i := 0; i < n; i++ {
		total := 0.0
		for _, rate := range rates {
			total += r.Exp(rate)
		}
		if total <= tt {
			hits++
		}
	}
	emp := float64(hits) / n
	if got := h.CDF(tt); math.Abs(got-emp) > 0.005 {
		t.Errorf("CDF(%v) = %v, Monte Carlo says %v", tt, got, emp)
	}
}

func TestPathWeight(t *testing.T) {
	if w, err := PathWeight(nil, 5); err != nil || w != 1 {
		t.Errorf("zero-hop path weight = %v, %v; want 1, nil", w, err)
	}
	if w, err := PathWeight(nil, -1); err != nil || w != 0 {
		t.Errorf("zero-hop negative-T weight = %v, %v; want 0, nil", w, err)
	}
	if _, err := PathWeight([]float64{-1}, 5); err == nil {
		t.Error("negative rate: want error")
	}
	w, err := PathWeight([]float64{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 - math.Exp(-2.0); math.Abs(w-want) > 1e-12 {
		t.Errorf("PathWeight = %v, want %v", w, want)
	}
}

// cdfUniformizedRef is cdfUniformized as it was before the
// exact-underflow exit: the Poisson sum runs until the weights sum to
// 1-1e-13 past qt or a fixed cap of 100,000 terms. Below qt ~ 6e4 the
// cap only ever cuts terms that add exactly +0, so there it is the
// oracle the early exit must match bit for bit.
func cdfUniformizedRef(h *Hypoexp, t float64) float64 {
	r := len(h.rates)
	q := 0.0
	for _, rate := range h.rates {
		if rate > q {
			q = rate
		}
	}
	qt := q * t
	occ, next := make([]float64, r), make([]float64, r)
	occ[0] = 1
	logw := -qt
	sumAbsorbed := 0.0
	sumWeights := 0.0
	absorbed := 0.0
	for n := 0; ; n++ {
		if n > 0 {
			logw += math.Log(qt) - math.Log(float64(n))
			for i := range next {
				next[i] = 0
			}
			for k := 0; k < r; k++ {
				stay := 1 - h.rates[k]/q
				move := h.rates[k] / q
				next[k] += occ[k] * stay
				if k+1 < r {
					next[k+1] += occ[k] * move
				} else {
					absorbed += occ[k] * move
				}
			}
			copy(occ, next)
		}
		w := math.Exp(logw)
		sumAbsorbed += w * absorbed
		sumWeights += w
		if sumWeights > 1-1e-13 && n > int(qt) {
			break
		}
		if n > 100000 {
			break
		}
	}
	return sumAbsorbed
}

// mitPlateauRates is a 5-hop MIT Reality path whose uniformized weight
// sum stalls at 1 - 1.14e-13 (qt ~ 397 at T = one week), just short of
// the 1-1e-13 exit: without the underflow exit its sum ran all 100,001
// terms, ~98,600 of them exact zeros.
var mitPlateauRates = []float64{
	2.804849095499502e-06, 5.066824172515229e-06, 3.1667651078220184e-06,
	0.0006569680413684479, 3.1667651078220184e-06,
}

const mitPlateauT = 604800

// sameUniformized reports how cdfUniformized differs from the reference
// at t, or "" when the result bits are identical.
func sameUniformized(h *Hypoexp, t float64) string {
	got, want := h.cdfUniformized(t), cdfUniformizedRef(h, t)
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Sprintf("rates %v t %v: got %v (bits %x), reference %v (bits %x)",
			h.rates, t, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return ""
}

func TestUniformizedMatchesReference(t *testing.T) {
	h := mustHypoexp(t, mitPlateauRates)
	if d := sameUniformized(h, mitPlateauT); d != "" {
		t.Fatalf("MIT plateau path: %s", d)
	}
	if _, terms := h.uniformized(mitPlateauT); terms >= 2000 {
		t.Errorf("MIT plateau path summed %d Poisson terms, want < 2000", terms)
	}

	// Random repeated-rate paths of 1-8 hops drawn from a few rates, with
	// qt log-uniform over [1e-3, 5e4].
	rng := NewRand(15)
	for trial := 0; trial < 2000; trial++ {
		pool := make([]float64, 1+rng.Intn(3))
		for i := range pool {
			pool[i] = math.Pow(10, rng.Uniform(-6, 1))
		}
		rates := make([]float64, 1+rng.Intn(8))
		q := 0.0
		for i := range rates {
			rates[i] = pool[rng.Intn(len(pool))]
			q = math.Max(q, rates[i])
		}
		h := mustHypoexp(t, rates)
		qt := math.Pow(10, rng.Uniform(-3, math.Log10(5e4)))
		if d := sameUniformized(h, qt/q); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
	}
}

// TestSquaredAccuracy checks the scaling-and-squaring CDF against the
// closed form of Eq. (2) on well-separated rates, where that is exact
// to a few ulps, and against the Poisson sum on repeated rates at
// qt <= uniformizedMaxQT, whose own rounding over ~1e5 terms is below
// 1e-9.
func TestSquaredAccuracy(t *testing.T) {
	for _, rates := range [][]float64{
		{1, 1e-2, 1e-4},
		{1, 0.3, 1e-5, 3e-7},
		{2, 1e-3},
		{5, 0.9, 0.2, 0.04, 7e-3},
	} {
		h := mustHypoexp(t, rates)
		for _, tt := range []float64{1e3, 1e5, 1e6, 1e7, 3e7} {
			want, got := h.cdfClosedForm(tt), h.squared(tt)
			if math.Abs(got-want) > 1e-12*want {
				t.Errorf("rates %v t %v: squared %v, closed form %v", rates, tt, got, want)
			}
		}
	}

	// A stiff repeated-rate path: the slow hop is 1e5 times slower than
	// q, so at qt = 1e5 the CDF is far from 0 and 1.
	stiff := mustHypoexp(t, []float64{1, 1, 1e-5})
	if p, _ := stiff.uniformized(1e5); math.Abs(stiff.squared(1e5)-p) > 1e-9 || p < 0.1 || p > 0.9 {
		t.Errorf("stiff path at qt = 1e5: squared %v, Poisson sum %v", stiff.squared(1e5), p)
	}

	rng := NewRand(16)
	for trial := 0; trial < 300; trial++ {
		pool := make([]float64, 1+rng.Intn(3))
		for i := range pool {
			pool[i] = math.Pow(10, rng.Uniform(-6, 1))
		}
		rates := make([]float64, 1+rng.Intn(8))
		q := 0.0
		for i := range rates {
			rates[i] = pool[rng.Intn(len(pool))]
			q = math.Max(q, rates[i])
		}
		h := mustHypoexp(t, rates)
		tt := math.Pow(10, rng.Uniform(1, 5)) / q
		want, _ := h.uniformized(tt)
		if got := h.squared(tt); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: rates %v t %v: squared %v, Poisson sum %v", trial, rates, tt, got, want)
		}
	}
}

// TestHypoexpCDFHugeHorizonIsCheap pins the cost of a path weight at a
// horizon far past uniformizedMaxQT. A time constraint of 1e13 s puts
// the MIT plateau path at qt ~ 6.6e9, which a Poisson sum would need
// billions of terms for; squaring needs about 33 levels.
func TestHypoexpCDFHugeHorizonIsCheap(t *testing.T) {
	h := mustHypoexp(t, mitPlateauRates)
	start := time.Now()
	p := h.CDF(1e13)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("CDF(1e13) took %v", elapsed)
	}
	if math.Abs(p-1) > 1e-15 {
		t.Errorf("CDF(1e13) = %v, want 1", p)
	}
}

// FuzzHypoexpCDF checks the uniformized CDF against the reference sum
// bit for bit on paths of 1-8 hops, each hop one of four fuzzed rates
// (two bits of sel per hop), at times with qt <= 5e4; and that CDF stays
// in [0, 1] at every positive time.
func FuzzHypoexpCDF(f *testing.F) {
	r := mitPlateauRates
	f.Add(r[0], r[1], r[2], r[3], uint8(5), uint16(0|1<<2|2<<4|3<<6|2<<8), float64(mitPlateauT))
	f.Add(1.0, 1.0, 1.0, 1.0, uint8(4), uint16(0), 1.5)
	f.Add(2.0, 0.5, 1e-3, 7.0, uint8(8), uint16(0x1b1b), 300.0)
	f.Add(1e-9, 3.0, 3.0, 1e-9, uint8(3), uint16(0x0006), 1e4)
	f.Add(r[0], r[1], r[2], r[3], uint8(5), uint16(0|1<<2|2<<4|3<<6|2<<8), 1e13)
	f.Fuzz(func(t *testing.T, a, b, c, d float64, hops uint8, sel uint16, tt float64) {
		choice := [4]float64{a, b, c, d}
		rates := make([]float64, 1+hops%8)
		q := 0.0
		for i := range rates {
			rates[i] = choice[sel>>(2*i)&3]
			q = math.Max(q, rates[i])
		}
		h, err := NewHypoexp(rates)
		if err != nil || !(tt > 0) {
			t.Skip()
		}
		if q*tt <= 5e4 {
			if d := sameUniformized(h, tt); d != "" {
				t.Fatal(d)
			}
		}
		if p := h.CDF(tt); !(p >= 0 && p <= 1) {
			t.Fatalf("rates %v: CDF(%v) = %v outside [0, 1]", rates, tt, p)
		}
	})
}

func BenchmarkHypoexpCDFClosedForm(b *testing.B) {
	h, _ := NewHypoexp([]float64{0.3, 1.1, 2.7, 5.9})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.CDF(1.5)
	}
}

func BenchmarkHypoexpCDFUniformized(b *testing.B) {
	h, _ := NewHypoexp([]float64{1, 1, 1, 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.CDF(1.5)
	}
}

// BenchmarkHypoexpCDFUniformizedPlateau evaluates the MIT plateau path
// at T = one week (qt ~ 397), the tail the qt = 1.5 benchmark above
// never reaches.
func BenchmarkHypoexpCDFUniformizedPlateau(b *testing.B) {
	h, _ := NewHypoexp(mitPlateauRates)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.CDF(mitPlateauT)
	}
}
