package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccumulatorAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40) + 2
		xs := make([]float64, n)
		var acc Accumulator
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 3
			acc.Add(xs[i])
		}
		if acc.n != n {
			t.Fatalf("n = %d", acc.n)
		}
		if math.Abs(acc.Mean()-Mean(xs)) > 1e-9 {
			t.Fatalf("mean %v vs %v", acc.Mean(), Mean(xs))
		}
		if math.Abs(acc.Std()-Std(xs)) > 1e-9 {
			t.Fatalf("std %v vs %v", acc.Std(), Std(xs))
		}
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Var() != 0 || a.Std() != 0 {
		t.Error("empty accumulator should be all zeros")
	}
	a.Add(5)
	if a.Var() != 0 {
		t.Error("single sample variance should be 0")
	}
	if a.Mean() != 5 {
		t.Errorf("mean = %v", a.Mean())
	}
}

func TestMeanStdKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("mean = %v", got)
	}
	// Sample std with n-1: variance = 32/7.
	want := math.Sqrt(32.0 / 7.0)
	if got := Std(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("std = %v, want %v", got, want)
	}
	if Mean(nil) != 0 || Std(nil) != 0 || Std([]float64{1}) != 0 {
		t.Error("degenerate cases should be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := Median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := Quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("interpolated median = %v", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	// Input must not be mutated (sorted copy).
	if xs[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
