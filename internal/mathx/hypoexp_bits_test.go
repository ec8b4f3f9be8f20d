package mathx

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// cdfBitsRates is the rate-vector grid of TestHypoexpCDFBits: for 1 to
// 10 hops (past the stack-held phase vectors) and three rate scales,
// well-separated rates (closed form), all-equal rates, one repeated
// rate and rates within the separation tolerance (uniformized, or
// squared at long horizons).
func cdfBitsRates() [][]float64 {
	var out [][]float64
	for r := 1; r <= 10; r++ {
		for _, base := range []float64{1e-5, 3e-4, 2e-2} {
			distinct := make([]float64, r)
			equal := make([]float64, r)
			repeated := make([]float64, r)
			near := make([]float64, r)
			for k := range distinct {
				distinct[k] = base * (1 + 0.37*float64(k))
				equal[k] = base
				repeated[k] = base * (1 + 0.5*float64(k))
				near[k] = base * (1 + 1e-8*float64(k))
			}
			repeated[r-1] = repeated[0]
			out = append(out, distinct, equal, repeated, near)
		}
	}
	return out
}

// cdfBitsHorizons spans sub-second to far past the uniformized cutoff
// (q*t up to 2e7) and includes the boundary cases 0 and +Inf.
var cdfBitsHorizons = []float64{0, 1, 60, 3600, 3 * 3600, 86400, 7 * 86400, 90 * 86400, 1e9, math.Inf(1)}

// TestHypoexpCDFBits pins the exact bits of CDF over a grid of rate
// vectors and horizons that reaches every evaluation path: a single
// hop, the Eq. (2) closed form, the Poisson sum of uniformized and
// scaling and squaring. Any rewrite of those paths must return the
// same float64 bits, not merely close values.
func TestHypoexpCDFBits(t *testing.T) {
	const want = uint64(0xcfd3a62a2ac4b94b) // recorded before uniformized hoisted its loop invariants
	sum := fnv.New64a()
	var buf [8]byte
	paths := map[string]int{}
	for _, rates := range cdfBitsRates() {
		h, err := NewHypoexp(rates)
		if err != nil {
			t.Fatal(err)
		}
		for _, tt := range cdfBitsHorizons {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(h.CDF(tt)))
			sum.Write(buf[:])
			switch {
			case tt <= 0 || math.IsInf(tt, 1):
			case len(rates) == 1:
				paths["single"]++
			case h.distinct:
				paths["closed"]++
			case h.maxRate()*tt > uniformizedMaxQT:
				paths["squared"]++
			default:
				paths["uniformized"]++
			}
		}
	}
	for _, p := range []string{"single", "closed", "uniformized", "squared"} {
		if paths[p] == 0 {
			t.Errorf("grid never reaches the %s path", p)
		}
	}
	if got := sum.Sum64(); got != want {
		t.Errorf("CDF bits digest = %#x, want %#x (paths %v)", got, want, paths)
	}
}
