package mathx

import (
	"errors"
	"math"
	"sort"
)

// Hypoexp is the hypoexponential distribution of a sum of independent
// exponential random variables with (possibly repeated) rates. In the
// paper it models the delay of an r-hop opportunistic path whose hop k has
// inter-contact rate lambda_k (Definition 1, Eqs. 1-2): the path weight
// p_AB(T) is exactly CDF(T).
//
// The closed form of Eq. (2),
//
//	p(T) = sum_k C_k (1 - e^{-lambda_k T}),  C_k = prod_{s!=k} lambda_s/(lambda_s-lambda_k),
//
// is numerically unstable when two rates are close (the coefficients
// diverge with alternating signs). Hypoexp therefore uses the closed form
// only when all rates are well separated and falls back to uniformization
// of the underlying absorbing Markov chain otherwise, which is stable for
// arbitrary (including equal) rates.
type Hypoexp struct {
	rates    []float64
	distinct bool
	coef     []float64 // C_k of Eq. (2); valid only when distinct
}

// ErrBadRate reports a non-positive rate passed to NewHypoexp.
var ErrBadRate = errors.New("mathx: hypoexponential rates must be positive")

// relative separation below which the closed form is considered unstable.
const hypoexpSeparation = 1e-6

// NewHypoexp builds the distribution of the sum of exponentials with the
// given rates. The slice is copied; it must be non-empty and positive.
func NewHypoexp(rates []float64) (*Hypoexp, error) {
	if len(rates) == 0 {
		return nil, errors.New("mathx: hypoexponential needs at least one rate")
	}
	h := &Hypoexp{rates: make([]float64, len(rates))}
	copy(h.rates, rates)
	for _, r := range h.rates {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, ErrBadRate
		}
	}
	h.distinct = ratesSeparated(h.rates)
	if h.distinct {
		h.coef = hypoexpCoefficients(h.rates)
	}
	return h, nil
}

// Rates returns a copy of the hop rates.
func (h *Hypoexp) Rates() []float64 {
	out := make([]float64, len(h.rates))
	copy(out, h.rates)
	return out
}

// Mean returns the expected total delay, sum of 1/lambda_k.
func (h *Hypoexp) Mean() float64 {
	var m float64
	for _, r := range h.rates {
		m += 1 / r
	}
	return m
}

// CDF returns P(total delay <= t). For a single hop this is the
// exponential CDF; for multiple hops it is Eq. (2) of the paper.
func (h *Hypoexp) CDF(t float64) float64 {
	switch {
	case t <= 0:
		return 0
	case len(h.rates) == 1:
		return -math.Expm1(-h.rates[0] * t)
	case h.distinct:
		return clamp01(h.cdfClosedForm(t))
	default:
		return clamp01(h.cdfUniformized(t))
	}
}

// PDF returns the density of the total delay at t (Eq. 1).
func (h *Hypoexp) PDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	if len(h.rates) == 1 {
		return h.rates[0] * math.Exp(-h.rates[0]*t)
	}
	if h.distinct {
		var p float64
		for k, r := range h.rates {
			p += h.coef[k] * r * math.Exp(-r*t)
		}
		return math.Max(p, 0)
	}
	// Derivative via central difference on the uniformized CDF; adequate
	// for the rare repeated-rate case (the PDF is only used in tests and
	// diagnostics, never on the simulation hot path).
	const eps = 1e-6
	lo := math.Max(t-eps, 0)
	return math.Max((h.cdfUniformized(t+eps)-h.cdfUniformized(lo))/(t+eps-lo), 0)
}

func (h *Hypoexp) cdfClosedForm(t float64) float64 {
	var p float64
	for k, r := range h.rates {
		p += h.coef[k] * -math.Expm1(-r*t)
	}
	return p
}

// uniformizedStackHops is the longest path whose phase vectors
// cdfUniformized keeps on the stack; longer paths allocate them.
const uniformizedStackHops = 8

// cdfUniformized evaluates the CDF by uniformizing the absorbing chain
// 1 -> 2 -> ... -> r -> absorbed. With q = max rate, the jump matrix moves
// phase k to k+1 with probability rates[k]/q and stays with 1-rates[k]/q.
// The absorption probability by time t is 1 - sum of phase occupancies.
func (h *Hypoexp) cdfUniformized(t float64) float64 {
	r := len(h.rates)
	q := 0.0
	for _, rate := range h.rates {
		if rate > q {
			q = rate
		}
	}
	qt := q * t
	// phase occupancy vector after n jumps of the uniformized chain
	var occ, next []float64
	if r <= uniformizedStackHops {
		var occBuf, nextBuf [uniformizedStackHops]float64
		occ, next = occBuf[:r], nextBuf[:r]
	} else {
		occ, next = make([]float64, r), make([]float64, r)
	}
	occ[0] = 1
	// Poisson(qt) weights accumulated until the tail is negligible.
	logw := -qt // log of e^{-qt} (qt)^0 / 0!
	sumAbsorbed := 0.0
	sumWeights := 0.0
	// absorbed mass after n jumps
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
			break // safety net; qt is bounded in practice
		}
	}
	return sumAbsorbed
}

// hypoexpCoefficients computes C_k = prod_{s!=k} lambda_s / (lambda_s - lambda_k).
func hypoexpCoefficients(rates []float64) []float64 {
	coef := make([]float64, len(rates))
	for k, rk := range rates {
		c := 1.0
		for s, rs := range rates {
			if s == k {
				continue
			}
			c *= rs / (rs - rk)
		}
		coef[k] = c
	}
	return coef
}

// ratesSeparated reports whether all rates differ pairwise by more than a
// relative tolerance, i.e. whether the closed form is safe.
func ratesSeparated(rates []float64) bool {
	sorted := make([]float64, len(rates))
	copy(sorted, rates)
	sort.Float64s(sorted)
	for i := 1; i < len(sorted); i++ {
		gap := sorted[i] - sorted[i-1]
		if gap <= hypoexpSeparation*sorted[i] {
			return false
		}
	}
	return true
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// PathWeight is a convenience wrapper computing the opportunistic path
// weight p_AB(T) of Definition 1 for a path with the given hop rates.
// A zero-hop path (A==B) has weight 1 for any non-negative T.
func PathWeight(rates []float64, t float64) (float64, error) {
	if len(rates) == 0 {
		if t < 0 {
			return 0, nil
		}
		return 1, nil
	}
	h, err := NewHypoexp(rates)
	if err != nil {
		return 0, err
	}
	return h.CDF(t), nil
}
