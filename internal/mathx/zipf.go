package mathx

import (
	"errors"
	"sort"
)

// Zipf is the query-popularity distribution of paper Eq. (8):
//
//	P_j = (1/j^s) / sum_{i=1..M} (1/i^s),   j in [1, M],
//
// used to decide which data item a node requests. s = 0 degenerates to the
// uniform distribution; larger s concentrates requests on low ranks.
//
// Unlike math/rand.Zipf this implementation exposes the pmf/cdf directly
// (needed to reproduce Fig. 9(b)) and supports per-decision probability
// queries ("request item j with probability P_j"), matching the paper's
// query-generation procedure.
type Zipf struct {
	pmf []float64
	cdf []float64
}

// NewZipf builds the distribution over ranks 1..m with exponent s >= 0.
func NewZipf(m int, s float64) (*Zipf, error) {
	if m <= 0 {
		return nil, errors.New("mathx: zipf requires m >= 1")
	}
	if s < 0 {
		return nil, errors.New("mathx: zipf requires s >= 0")
	}
	z := &Zipf{pmf: make([]float64, m), cdf: make([]float64, m)}
	var norm float64
	for j := 1; j <= m; j++ {
		z.pmf[j-1] = 1 / powf(float64(j), s)
		norm += z.pmf[j-1]
	}
	var acc float64
	for j := range z.pmf {
		z.pmf[j] /= norm
		acc += z.pmf[j]
		z.cdf[j] = acc
	}
	z.cdf[m-1] = 1 // guard against rounding drift
	return z, nil
}

// P returns P_j for rank j in [1, M]; 0 outside.
func (z *Zipf) P(j int) float64 {
	if j < 1 || j > len(z.pmf) {
		return 0
	}
	return z.pmf[j-1]
}

// Sample draws a rank in [1, M].
func (z *Zipf) Sample(r *Rand) int {
	u := r.Float64()
	return sort.SearchFloat64s(z.cdf, u) + 1
}

// powf is a tiny wrapper so the hot loop avoids repeated interface checks;
// semantics are math.Pow.
func powf(x, y float64) float64 {
	if y == 0 {
		return 1
	}
	if y == 1 {
		return x
	}
	return powImpl(x, y)
}
