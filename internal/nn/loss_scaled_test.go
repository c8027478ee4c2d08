package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestScaledLossMatchesFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		T := rng.Intn(3) + 1
		pred := make([][]float64, T)
		target := make([][]float64, T)
		g1 := make([][]float64, T)
		g2 := make([][]float64, T)
		for i := 0; i < T; i++ {
			pred[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			target[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			g1[i] = make([]float64, 2)
			g2[i] = make([]float64, 2)
		}
		const factor = 2500.0
		base := MSE{}.LossGrad(pred, target, nil, g1)
		scaled := Scaled{Inner: MSE{}, Factor: factor}.LossGrad(pred, target, nil, g2)
		if math.Abs(scaled-base*factor) > 1e-9*math.Abs(scaled) {
			t.Fatalf("scaled loss %v != %v * %v", scaled, base, factor)
		}
		for i := range g1 {
			for d := range g1[i] {
				if math.Abs(g2[i][d]-g1[i][d]*factor) > 1e-9*math.Abs(g2[i][d])+1e-12 {
					t.Fatalf("scaled grad mismatch at %d,%d", i, d)
				}
			}
		}
	}
}

func TestScaledLossSameOptimum(t *testing.T) {
	// Scaling the loss must not move the optimum: train two identical
	// models, one on MSE and one on Scaled MSE with lr adjusted by the
	// factor; they should take identical trajectories.
	m1 := NewSeq2Seq(2, 2, 4, rand.New(rand.NewSource(2)))
	m2 := NewSeq2Seq(2, 2, 4, rand.New(rand.NewSource(2)))
	s := randSample(rand.New(rand.NewSource(3)), 2, 2, 3, 1)
	g1 := NewVector(m1.NumParams())
	g2 := NewVector(m2.NumParams())
	const factor = 100.0
	for it := 0; it < 5; it++ {
		m1.BatchGrad([]Sample{s}, MSE{}, g1)
		SGD{LR: 0.1}.Step(m1.Weights(), g1)
		m2.BatchGrad([]Sample{s}, Scaled{Inner: MSE{}, Factor: factor}, g2)
		SGD{LR: 0.1 / factor}.Step(m2.Weights(), g2)
	}
	w1, w2 := m1.Weights(), m2.Weights()
	for i := range w1 {
		if math.Abs(w1[i]-w2[i]) > 1e-9 {
			t.Fatalf("weights diverged at %d: %v vs %v", i, w1[i], w2[i])
		}
	}
}

func TestScaledWeightedComposition(t *testing.T) {
	pred := [][]float64{{1, 0}}
	target := [][]float64{{0, 0}}
	grad := [][]float64{{0, 0}}
	l := Scaled{Inner: WeightedMSE{}, Factor: 10}.LossGrad(pred, target, []float64{2}, grad)
	if math.Abs(l-20) > 1e-12 { // 2 * 1 * 10
		t.Errorf("composed loss = %v, want 20", l)
	}
	if math.Abs(grad[0][0]-40) > 1e-12 { // 2*2*1*10
		t.Errorf("composed grad = %v, want 40", grad[0][0])
	}
}
