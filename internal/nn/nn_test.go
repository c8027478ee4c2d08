package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	x := Vector{4, 5, 6}
	c := v.Clone()
	c.Axpy(2, x)
	want := Vector{9, 12, 15}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("Axpy = %v", c)
		}
	}
	if v[0] != 1 {
		t.Error("Clone aliased original")
	}
	c.Zero()
	for _, e := range c {
		if e != 0 {
			t.Fatalf("Zero left %v", c)
		}
	}
	if got := v.Dot(x); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := (Vector{3, 4}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
}

func TestVectorCosineSim(t *testing.T) {
	a := Vector{1, 0}
	b := Vector{0, 1}
	if got := a.CosineSim(b); math.Abs(got) > 1e-12 {
		t.Errorf("orthogonal cos = %v", got)
	}
	if got := a.CosineSim(Vector{2, 0}); math.Abs(got-1) > 1e-12 {
		t.Errorf("parallel cos = %v", got)
	}
	if got := a.CosineSim(Vector{-3, 0}); math.Abs(got+1) > 1e-12 {
		t.Errorf("antiparallel cos = %v", got)
	}
	if got := a.CosineSim(Vector{0, 0}); got != 0 {
		t.Errorf("zero-vector cos = %v", got)
	}
}

func TestVectorCosineSimBounded(t *testing.T) {
	f := func(a0, a1, a2, b0, b1, b2 float64) bool {
		for _, x := range []float64{a0, a1, a2, b0, b1, b2} {
			if math.IsNaN(x) || math.Abs(x) > 1e150 {
				return true
			}
		}
		c := Vector{a0, a1, a2}.CosineSim(Vector{b0, b1, b2})
		return c >= -1-1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorClipNorm(t *testing.T) {
	v := Vector{3, 4}
	if before := v.ClipNorm(2.5); before != 5 {
		t.Errorf("returned norm = %v", before)
	}
	if got := v.Norm(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("clipped norm = %v", got)
	}
	w := Vector{0.3, 0.4}
	w.ClipNorm(10)
	if got := w.Norm(); math.Abs(got-0.5) > 1e-12 {
		t.Error("clip should not grow small vectors")
	}
}

func TestMean(t *testing.T) {
	got := Mean([]Vector{{1, 2}, {3, 4}, {5, 6}})
	if got[0] != 3 || got[1] != 4 {
		t.Errorf("Mean = %v", got)
	}
	if Mean(nil) != nil {
		t.Error("Mean(nil) should be nil")
	}
}

func TestSigmoid(t *testing.T) {
	if got := sigmoid(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("sigmoid(0) = %v", got)
	}
	if got := sigmoid(1000); got != 1 {
		t.Errorf("sigmoid(+inf) = %v", got)
	}
	if got := sigmoid(-1000); got != 0 {
		t.Errorf("sigmoid(-inf) = %v", got)
	}
	// Symmetry: σ(−x) = 1 − σ(x).
	for _, x := range []float64{0.1, 1, 5, 37} {
		if d := sigmoid(-x) + sigmoid(x) - 1; math.Abs(d) > 1e-12 {
			t.Errorf("sigmoid symmetry broken at %v: %v", x, d)
		}
	}
}

func TestMSELoss(t *testing.T) {
	pred := [][]float64{{1, 2}, {3, 4}}
	target := [][]float64{{1, 1}, {1, 1}}
	grad := [][]float64{{0, 0}, {0, 0}}
	got := MSE{}.LossGrad(pred, target, nil, grad)
	want := (0.0 + 1 + 4 + 9) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("MSE = %v, want %v", got, want)
	}
	if math.Abs(grad[1][1]-3) > 1e-12 { // 2*(4-1)/2
		t.Errorf("grad[1][1] = %v, want 3", grad[1][1])
	}
}

// TestWeightedMSEMatchesMSEUnderUnitWeight holds MSE to WeightedMSE on a
// sample without weights and on unit weights, and MSE to ignoring any
// weights it is handed, bit for bit.
func TestWeightedMSEMatchesMSEUnderUnitWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		T := rng.Intn(4) + 1
		pred := make([][]float64, T)
		target := make([][]float64, T)
		ones, threes := make([]float64, T), make([]float64, T)
		for i := 0; i < T; i++ {
			pred[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			target[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			ones[i], threes[i] = 1, 3
		}
		grads := func() [][]float64 {
			g := make([][]float64, T)
			for i := range g {
				g[i] = make([]float64, 2)
			}
			return g
		}
		gMSE, gNil, gOnes, gIgnored := grads(), grads(), grads(), grads()
		want := MSE{}.LossGrad(pred, target, nil, gMSE)
		for name, got := range map[string]struct {
			loss float64
			grad [][]float64
		}{
			"weighted, no weights":   {WeightedMSE{}.LossGrad(pred, target, nil, gNil), gNil},
			"weighted, unit weights": {WeightedMSE{}.LossGrad(pred, target, ones, gOnes), gOnes},
			"MSE handed weights":     {MSE{}.LossGrad(pred, target, threes, gIgnored), gIgnored},
		} {
			if math.Float64bits(got.loss) != math.Float64bits(want) {
				t.Fatalf("trial %d, %s: loss %v, MSE %v", trial, name, got.loss, want)
			}
			for i := range gMSE {
				requireSameBits(t, fmt.Sprintf("trial %d, %s, grad[%d]", trial, name, i), got.grad[i], gMSE[i])
			}
		}
	}
}

func TestWeightedMSEScalesWithWeight(t *testing.T) {
	pred := [][]float64{{2, 0}}
	target := [][]float64{{0, 0}}
	grad := [][]float64{{0, 0}}
	l := WeightedMSE{}.LossGrad(pred, target, []float64{3}, grad)
	if math.Abs(l-12) > 1e-12 { // 3 * 4
		t.Errorf("weighted loss = %v, want 12", l)
	}
	if math.Abs(grad[0][0]-12) > 1e-12 { // 2*3*2
		t.Errorf("weighted grad = %v, want 12", grad[0][0])
	}
}

func TestEmptyLoss(t *testing.T) {
	if got := (MSE{}).LossGrad(nil, nil, nil, nil); got != 0 {
		t.Errorf("empty MSE = %v", got)
	}
	if got := (WeightedMSE{}).LossGrad(nil, nil, nil, nil); got != 0 {
		t.Errorf("empty weighted = %v", got)
	}
}

func randSample(rng *rand.Rand, inDim, outDim, seqIn, seqOut int) Sample {
	s := Sample{}
	for i := 0; i < seqIn; i++ {
		row := make([]float64, inDim)
		for d := range row {
			row[d] = rng.NormFloat64() * 0.5
		}
		s.In = append(s.In, row)
	}
	for i := 0; i < seqOut; i++ {
		row := make([]float64, outDim)
		for d := range row {
			row[d] = rng.NormFloat64() * 0.5
		}
		s.Out = append(s.Out, row)
	}
	return s
}

// TestSeq2SeqGradCheck validates the analytic BPTT gradient against central
// finite differences over every parameter of a small model. This covers the
// LSTM cell backward, the linear head, and the autoregressive decoder-input
// path in one shot.
func TestSeq2SeqGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewSeq2Seq(2, 2, 4, rng)
	s := randSample(rng, 2, 2, 3, 2)
	loss := MSE{}

	grad := NewVector(m.NumParams())
	m.Grad(s.In, s.Out, loss, grad)

	const eps = 1e-5
	w := m.Weights()
	maxRel := 0.0
	for i := 0; i < m.NumParams(); i++ {
		orig := w[i]
		w[i] = orig + eps
		lp := m.BatchLoss([]Sample{s}, loss)
		w[i] = orig - eps
		lm := m.BatchLoss([]Sample{s}, loss)
		w[i] = orig
		num := (lp - lm) / (2 * eps)
		denom := math.Max(math.Abs(num)+math.Abs(grad[i]), 1e-6)
		rel := math.Abs(num-grad[i]) / denom
		if rel > maxRel {
			maxRel = rel
		}
		if rel > 1e-3 && math.Abs(num-grad[i]) > 1e-6 {
			t.Fatalf("param %d: analytic %v vs numeric %v (rel %v)", i, grad[i], num, rel)
		}
	}
	t.Logf("max relative gradient error: %.2e", maxRel)
}

// TestSeq2SeqGradCheckWeighted repeats the gradient check under the
// task-assignment-oriented loss with a non-trivial weight function.
func TestSeq2SeqGradCheckWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewSeq2Seq(2, 2, 3, rng)
	s := randSample(rng, 2, 2, 2, 3)
	for step, target := range s.Out {
		s.W = append(s.W, 0.5+float64(step)+math.Abs(target[0]))
	}
	loss := WeightedMSE{}

	grad := NewVector(m.NumParams())
	m.BatchGrad([]Sample{s}, loss, grad)

	const eps = 1e-5
	w := m.Weights()
	for i := 0; i < m.NumParams(); i += 7 { // spot check every 7th param
		orig := w[i]
		w[i] = orig + eps
		lp := m.BatchLoss([]Sample{s}, loss)
		w[i] = orig - eps
		lm := m.BatchLoss([]Sample{s}, loss)
		w[i] = orig
		num := (lp - lm) / (2 * eps)
		denom := math.Max(math.Abs(num)+math.Abs(grad[i]), 1e-6)
		if rel := math.Abs(num-grad[i]) / denom; rel > 1e-3 && math.Abs(num-grad[i]) > 1e-6 {
			t.Fatalf("param %d: analytic %v vs numeric %v", i, grad[i], num)
		}
	}
}

func TestSeq2SeqPredictShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewSeq2Seq(2, 2, 5, rng)
	s := randSample(rng, 2, 2, 4, 3)
	out := m.Predict(s.In, 3)
	if len(out) != 3 {
		t.Fatalf("predicted %d steps", len(out))
	}
	for _, row := range out {
		if len(row) != 2 {
			t.Fatalf("output dim = %d", len(row))
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite prediction %v", row)
			}
		}
	}
}

func TestSeq2SeqDeterministic(t *testing.T) {
	m1 := NewSeq2Seq(2, 2, 4, rand.New(rand.NewSource(5)))
	m2 := NewSeq2Seq(2, 2, 4, rand.New(rand.NewSource(5)))
	s := randSample(rand.New(rand.NewSource(9)), 2, 2, 3, 2)
	a := m1.Predict(s.In, 2)
	b := m2.Predict(s.In, 2)
	for i := range a {
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				t.Fatal("same seed produced different predictions")
			}
		}
	}
}

func TestSeq2SeqCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewSeq2Seq(2, 2, 3, rng)
	c := m.Clone()
	c.Weights()[0] += 100
	if m.Weights()[0] == c.Weights()[0] {
		t.Error("Clone shares weight storage")
	}
}

func TestSeq2SeqSetWeightsPanicsOnMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewSeq2Seq(2, 2, 3, rng)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.SetWeights(NewVector(3))
}

// TestSeq2SeqLearnsLinearMotion trains a small model on constant-velocity
// trajectories and checks the loss drops substantially — an end-to-end
// sanity check that forward, backward, and the optimizer cooperate.
func TestSeq2SeqLearnsLinearMotion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewSeq2Seq(2, 2, 8, rng)
	var batch []Sample
	for i := 0; i < 32; i++ {
		x0, y0 := rng.Float64()-0.5, rng.Float64()-0.5
		vx, vy := rng.NormFloat64()*0.05, rng.NormFloat64()*0.05
		var s Sample
		for k := 0; k < 4; k++ {
			s.In = append(s.In, []float64{x0 + vx*float64(k), y0 + vy*float64(k)})
		}
		s.Out = append(s.Out, []float64{x0 + vx*4, y0 + vy*4})
		batch = append(batch, s)
	}
	loss := MSE{}
	grad := NewVector(m.NumParams())
	before := m.BatchLoss(batch, loss)
	opt := NewAdam(0.01)
	for it := 0; it < 220; it++ {
		m.BatchGrad(batch, loss, grad)
		opt.Step(m.Weights(), grad)
	}
	after := m.BatchLoss(batch, loss)
	if after > before*0.3 {
		t.Errorf("training did not converge: before %v, after %v", before, after)
	}
}

func TestSGDStep(t *testing.T) {
	w := Vector{1, 2}
	g := Vector{10, -10}
	SGD{LR: 0.1}.Step(w, g)
	if w[0] != 0 || w[1] != 3 {
		t.Errorf("SGD step = %v", w)
	}
}

func TestSGDClip(t *testing.T) {
	w := Vector{0, 0}
	g := Vector{30, 40} // norm 50
	SGD{LR: 1, ClipNorm: 5}.Step(w, g)
	if math.Abs(w[0]+3) > 1e-12 || math.Abs(w[1]+4) > 1e-12 {
		t.Errorf("clipped SGD step = %v", w)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = Σ (w_i - target_i)².
	target := Vector{3, -1, 0.5}
	w := Vector{0, 0, 0}
	opt := NewAdam(0.1)
	g := NewVector(3)
	for it := 0; it < 500; it++ {
		for i := range g {
			g[i] = 2 * (w[i] - target[i])
		}
		opt.Step(w, g)
	}
	for i := range w {
		if math.Abs(w[i]-target[i]) > 0.01 {
			t.Errorf("Adam w[%d] = %v, want %v", i, w[i], target[i])
		}
	}
}

func TestBatchGradEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewSeq2Seq(2, 2, 3, rng)
	grad := NewVector(m.NumParams())
	grad[0] = 99
	if got := m.BatchGrad(nil, MSE{}, grad); got != 0 {
		t.Errorf("empty BatchGrad = %v", got)
	}
	if grad[0] != 0 {
		t.Error("BatchGrad should zero the gradient")
	}
	if got := m.BatchLoss(nil, MSE{}); got != 0 {
		t.Errorf("empty BatchLoss = %v", got)
	}
}

func TestRandomVectorRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	v := RandomVector(1000, 0.3, rng)
	for _, x := range v {
		if x < -0.3 || x > 0.3 {
			t.Fatalf("value %v outside scale", x)
		}
	}
}
