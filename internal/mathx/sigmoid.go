package mathx

import (
	"errors"
	"math"
)

// ResponseSigmoid is the probabilistic-response function of paper Eq. (4):
//
//	p_R(t) = k1 / (1 + e^{-k2 t}),
//	k1 = 2 p_min,
//	k2 = (1/T_q) ln(p_max / (2 p_min - p_max)),
//
// where t is the remaining time T_q - t_0 a caching node has to return
// data to the requester, so p_R(0) = p_min and p_R(T_q) = p_max. It is
// used when nodes only maintain opportunistic paths to the central nodes
// and therefore cannot evaluate the true delivery probability p_CR.
type ResponseSigmoid struct {
	k1, k2 float64
	tq     float64
	pmin   float64
	pmax   float64
}

// ErrSigmoidParams reports parameters outside the domain required by
// Eq. (4): 0 < p_max <= 1, p_max/2 < p_min < p_max, T_q > 0.
var ErrSigmoidParams = errors.New("mathx: sigmoid requires 0 < pmax <= 1, pmax/2 < pmin < pmax, tq > 0")

// NewResponseSigmoid validates the parameters and builds the function.
func NewResponseSigmoid(pmin, pmax, tq float64) (*ResponseSigmoid, error) {
	if !(pmax > 0 && pmax <= 1) || !(pmin > pmax/2 && pmin < pmax) || tq <= 0 {
		return nil, ErrSigmoidParams
	}
	return &ResponseSigmoid{
		k1:   2 * pmin,
		k2:   math.Log(pmax/(2*pmin-pmax)) / tq,
		tq:   tq,
		pmin: pmin,
		pmax: pmax,
	}, nil
}

// Prob returns p_R at remaining time t, clamped to [0, p_max] outside the
// nominal domain [0, T_q].
func (s *ResponseSigmoid) Prob(t float64) float64 {
	if t <= 0 {
		return s.pmin
	}
	if t >= s.tq {
		return s.pmax
	}
	return s.k1 / (1 + math.Exp(-s.k2*t))
}
