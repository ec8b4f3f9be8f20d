package mathx

import (
	"errors"
	"math"
	"slices"
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
	rates = append([]float64(nil), rates...)
	coef := make([]float64, len(rates))
	distinct, err := Prepare(rates, coef)
	if err != nil {
		return nil, err
	}
	h := View(rates, coef, distinct)
	return &h, nil
}

// Prepare validates rates as NewHypoexp does and, when they are well
// separated enough for the closed form of Eq. (2), fills coef (as long
// as rates) with its coefficients and reports distinct. A caller that
// keeps rates and coef, unchanged, evaluates the distribution through
// View without preparing it again.
func Prepare(rates, coef []float64) (distinct bool, err error) {
	if len(rates) == 0 {
		return false, errors.New("mathx: hypoexponential needs at least one rate")
	}
	for _, r := range rates {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return false, ErrBadRate
		}
	}
	if !ratesSeparated(rates) {
		return false, nil
	}
	hypoexpCoefficients(rates, coef[:len(rates)])
	return true, nil
}

// Coefficients fills coef (as long as rates) with the Eq. (2)
// coefficients of rates, as Prepare does for rates it reports distinct.
// A caller that kept only the rates and Prepare's verdict recomputes
// the coefficients here, bit for bit, instead of storing them.
func Coefficients(rates, coef []float64) {
	hypoexpCoefficients(rates, coef[:len(rates)])
}

// View returns the distribution of rates that Prepare prepared, reading
// rates and coef in place: distinct must be what Prepare reported, and
// coef what it or Coefficients filled. It computes nothing, so a View
// on the stack evaluates bit for bit as NewHypoexp on the same rates.
func View(rates, coef []float64, distinct bool) Hypoexp {
	h := Hypoexp{rates: rates, distinct: distinct}
	if distinct {
		h.coef = coef[:len(rates)]
	}
	return h
}

// CDF returns P(total delay <= t). For a single hop this is the
// exponential CDF; for multiple hops it is Eq. (2) of the paper. The
// zero Hypoexp, which has no rates, returns 0.
func (h *Hypoexp) CDF(t float64) float64 {
	switch {
	case t <= 0 || len(h.rates) == 0:
		return 0
	case math.IsInf(t, 1):
		return 1
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

// expUnderflow is a log-weight below which math.Exp returns exactly 0
// on every implementation: the pure-Go Exp underflows below -745.13,
// the assembly versions by about -745.5.
const expUnderflow = -750

// uniformizedMaxQT is the largest q*t the Poisson sum of uniformized
// handles. Its cost grows with qt (about qt + 40*sqrt(qt) terms at
// worst, ~1.1e5 here), so larger horizons go to squared instead,
// whose cost grows with log(qt).
const uniformizedMaxQT = 1e5

// cdfUniformized evaluates the CDF of the absorbing chain
// 1 -> 2 -> ... -> r -> absorbed, by the Poisson sum of uniformized up
// to q*t = uniformizedMaxQT (q = max rate) and by squared beyond.
func (h *Hypoexp) cdfUniformized(t float64) float64 {
	if h.maxRate()*t > uniformizedMaxQT {
		return h.squared(t)
	}
	p, _ := h.uniformized(t)
	return p
}

func (h *Hypoexp) maxRate() float64 {
	q := 0.0
	for _, rate := range h.rates {
		if rate > q {
			q = rate
		}
	}
	return q
}

// uniformized evaluates the CDF by uniformizing the chain: with
// q = max rate, the jump matrix moves phase k to k+1 with probability
// rates[k]/q and stays with 1-rates[k]/q, and the absorption
// probability by time t is the Poisson(qt)-weighted sum of the mass
// absorbed after n jumps. It also reports how many terms it summed.
//
// The sum stops once it is past the Poisson mode (n > qt) and either
// the weights sum to 1 within 1e-13 or the log-weight has fallen below
// expUnderflow. The second exit is exact: past the mode every step
// adds log(qt) - log(n) <= 0 to logw, so logw never rises again, every
// later weight is math.Exp(logw) == 0, and every later term would add
// exactly +0 to the sum. Stopping there returns the bits the full sum
// would, and ends the loop where the Poisson weights underflow
// (n ~ 1,400 at qt ~ 400) even when rounding keeps the weight sum
// short of 1-1e-13.
//
// log(qt) and each phase's jump probabilities are computed once, before
// the loop, and the occupancy vectors swap roles each step instead of
// being copied: every term sees the same operands, so the same bits.
func (h *Hypoexp) uniformized(t float64) (p float64, terms int) {
	r := len(h.rates)
	q := h.maxRate()
	qt := q * t
	if math.IsNaN(qt) {
		return qt, 0
	}
	// phase occupancy vector after n jumps of the uniformized chain, and
	// each phase's stay and move probabilities
	var occ, next, stay, move []float64
	if r <= uniformizedStackHops {
		var occBuf, nextBuf, stayBuf, moveBuf [uniformizedStackHops]float64
		occ, next, stay, move = occBuf[:r], nextBuf[:r], stayBuf[:r], moveBuf[:r]
	} else {
		occ, next, stay, move = make([]float64, r), make([]float64, r), make([]float64, r), make([]float64, r)
	}
	for k, rate := range h.rates {
		stay[k] = 1 - rate/q
		move[k] = rate / q
	}
	occ[0] = 1
	logQT := math.Log(qt)
	// Poisson(qt) weights accumulated until the tail is negligible.
	logw := -qt // log of e^{-qt} (qt)^0 / 0!
	sumAbsorbed := 0.0
	sumWeights := 0.0
	// absorbed mass after n jumps
	absorbed := 0.0
	var n int
	for n = 0; ; n++ {
		if n > 0 {
			logw += logQT - math.Log(float64(n))
			clear(next)
			for k := 0; k < r; k++ {
				next[k] += occ[k] * stay[k]
				if k+1 < r {
					next[k+1] += occ[k] * move[k]
				} else {
					absorbed += occ[k] * move[k]
				}
			}
			occ, next = next, occ
		}
		w := math.Exp(logw)
		sumAbsorbed += w * absorbed
		sumWeights += w
		if float64(n) > qt && (sumWeights > 1-1e-13 || logw < expUnderflow) {
			break
		}
	}
	return sumAbsorbed, n + 1
}

// squaredBaseTerms is how many Poisson terms squared sums for its base
// step beyond the path length. The base step has q*tau < 1, so term n
// is at most 1/(n-d)! of the first non-zero term of an entry d phases
// ahead, and 1/20! ~ 4e-19 is below double precision.
const squaredBaseTerms = 20

// squared evaluates the CDF by scaling and squaring the transition
// matrix M(t) = exp(Q t) of the chain with its absorbing state, for
// horizons too long for the Poisson sum. It picks s with
// q*t/2^s = a in [1/4, 1), computes M(t/2^s) by uniformization (a
// short Poisson sum), and squares it s times: M(2u) = M(u)^2.
//
// M is upper triangular. Its diagonal is exp(-rate_k u), computed
// directly at every level because squaring an entry near 1 would
// multiply its rounding error by 2^s. Its off-diagonal entries are
// non-negative and square as
//
//	M'_ij = M_ij (M_ii + M_jj) + sum_{i<k<j} M_ik M_kj,
//
// a sum of non-negative products with no cancellation. The CDF is the
// absorbed entry M_0r. The cost is O(r^3 log2(qt)) for r hops, and the
// scale is taken from the exponents of q and t, so q*t may overflow.
func (h *Hypoexp) squared(t float64) float64 {
	if math.IsInf(t, 1) {
		return 1
	}
	r := len(h.rates)
	m := r + 1 // the phases and the absorbing state
	q := h.maxRate()
	fq, eq := math.Frexp(q)
	ft, et := math.Frexp(t)
	s := eq + et
	a := fq * ft // q*t/2^s
	ratio := make([]float64, r)
	for k, rate := range h.rates {
		ratio[k] = rate / q
	}
	// diagonal of M at level lvl: exp(-rate_k t/2^(s-lvl)); the
	// absorbing state stays put.
	diag := make([]float64, m)
	diag[r] = 1
	setDiag := func(lvl int) {
		for k := range ratio {
			diag[k] = math.Exp(-math.Ldexp(a*ratio[k], lvl))
		}
	}
	// off[i*m+j], i < j: M_ij. Base step: sum_n w_n (P^n)_ij, P the
	// jump matrix, with pw = P^n kept row by row.
	off := make([]float64, m*m)
	pw := make([]float64, m*m)
	nxt := make([]float64, m*m)
	for i := 0; i < m; i++ {
		pw[i*m+i] = 1
	}
	jump := func(k int) (stay, move float64) {
		if k == r {
			return 1, 0
		}
		return 1 - ratio[k], ratio[k]
	}
	w := math.Exp(-a)
	for n := 1; n <= r+squaredBaseTerms; n++ {
		w *= a / float64(n)
		// nxt = pw * P: column j gets pw_ij stay_j + pw_i,j-1 move_j-1.
		for i := 0; i < m; i++ {
			for j := i; j < m; j++ {
				stay, _ := jump(j)
				v := pw[i*m+j] * stay
				if j > i {
					_, move := jump(j - 1)
					v += pw[i*m+j-1] * move
				}
				nxt[i*m+j] = v
			}
		}
		pw, nxt = nxt, pw
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				off[i*m+j] += w * pw[i*m+j]
			}
		}
	}
	setDiag(0)
	for lvl := 1; lvl <= s; lvl++ {
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				v := off[i*m+j] * (diag[i] + diag[j])
				for k := i + 1; k < j; k++ {
					v += off[i*m+k] * off[k*m+j]
				}
				nxt[i*m+j] = v
			}
		}
		off, nxt = nxt, off
		setDiag(lvl)
	}
	return off[r]
}

// hypoexpCoefficients sets coef[k] = prod_{s!=k} lambda_s / (lambda_s - lambda_k).
func hypoexpCoefficients(rates, coef []float64) {
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
}

// ratesSeparated reports whether all rates differ pairwise by more than a
// relative tolerance, i.e. whether the closed form is safe.
func ratesSeparated(rates []float64) bool {
	var buf [uniformizedStackHops]float64
	sorted := append(buf[:0], rates...)
	slices.Sort(sorted)
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
