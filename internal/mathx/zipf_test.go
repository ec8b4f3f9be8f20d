package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZipfRejectsBadParams(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("NewZipf(0, 1): want error")
	}
	if _, err := NewZipf(-3, 1); err == nil {
		t.Error("NewZipf(-3, 1): want error")
	}
	if _, err := NewZipf(10, -0.5); err == nil {
		t.Error("NewZipf(10, -0.5): want error")
	}
}

func TestZipfPMFSumsToOne(t *testing.T) {
	for _, s := range []float64{0, 0.5, 0.8, 1, 1.2, 2} {
		z, err := NewZipf(100, s)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for j := 1; j <= 100; j++ {
			sum += z.P(j)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("s=%v: pmf sums to %v", s, sum)
		}
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z, err := NewZipf(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= 10; j++ {
		if math.Abs(z.P(j)-0.1) > 1e-12 {
			t.Errorf("P(%d) = %v, want 0.1", j, z.P(j))
		}
	}
}

func TestZipfMonotoneDecreasing(t *testing.T) {
	z, err := NewZipf(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	for j := 2; j <= 50; j++ {
		if z.P(j) > z.P(j-1) {
			t.Errorf("P(%d)=%v > P(%d)=%v", j, z.P(j), j-1, z.P(j-1))
		}
	}
}

func TestZipfKnownRatio(t *testing.T) {
	// With s=1, P_1 / P_2 = 2 exactly.
	z, err := NewZipf(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := z.P(1) / z.P(2); math.Abs(got-2) > 1e-9 {
		t.Errorf("P1/P2 = %v, want 2", got)
	}
}

func TestZipfOutOfRange(t *testing.T) {
	z, err := NewZipf(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if z.P(0) != 0 || z.P(6) != 0 || z.P(-1) != 0 {
		t.Error("P outside [1,M] must be 0")
	}
}

func TestZipfSampleMatchesPMF(t *testing.T) {
	z, err := NewZipf(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRand(7)
	const n = 200000
	counts := make([]int, 21)
	for i := 0; i < n; i++ {
		j := z.Sample(r)
		if j < 1 || j > 20 {
			t.Fatalf("sample %d out of range", j)
		}
		counts[j]++
	}
	for j := 1; j <= 20; j++ {
		emp := float64(counts[j]) / n
		if math.Abs(emp-z.P(j)) > 0.005 {
			t.Errorf("rank %d: empirical %v vs pmf %v", j, emp, z.P(j))
		}
	}
}

func TestZipfSamplePropertyInRange(t *testing.T) {
	f := func(m uint8, seed int64) bool {
		mm := int(m%100) + 1
		z, err := NewZipf(mm, 1)
		if err != nil {
			return false
		}
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			j := z.Sample(r)
			if j < 1 || j > mm {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
