package nn

// Loss scores a predicted sequence against its target and produces the
// gradient of the loss with respect to the prediction.
type Loss interface {
	// LossGrad returns the scalar loss and writes dLoss/dPred into grad,
	// which has the same shape as pred (overwritten, not added to). w holds
	// the target's per-step weights f_w (Sample.W); nil weighs every step 1.
	LossGrad(pred, target [][]float64, w []float64, grad [][]float64) float64
}

// MSE is the plain mean-squared-error loss used by the -loss algorithm
// variants (KM-loss, PPI-loss) and by prediction-quality evaluation:
// L = (1/T) Σ_t ‖pred_t − target_t‖². It ignores the sample's weights: it
// is WeightedMSE on a sample without them.
type MSE struct{}

// LossGrad implements Loss.
func (MSE) LossGrad(pred, target [][]float64, _ []float64, grad [][]float64) float64 {
	return weightedMSE(pred, target, nil, grad)
}

// WeightedMSE is the task-assignment-oriented loss of Eq. 6:
// L = (1/T) Σ_t f_w(l_t)·‖pred_t − target_t‖², where f_w up-weights
// trajectory points around which historical spatial tasks concentrate. The
// weights f_w(l_t) of Eq. 7 come with the sample (Sample.W), computed once
// when its learning task is built; a sample without them weighs every step
// 1, which is MSE to the bit.
type WeightedMSE struct{}

// LossGrad implements Loss.
func (WeightedMSE) LossGrad(pred, target [][]float64, w []float64, grad [][]float64) float64 {
	return weightedMSE(pred, target, w, grad)
}

// weightedMSE is Eq. 6 with weights w, or unit weights when w is nil (a
// product by 1 is exact, so the bits are plain MSE's).
func weightedMSE(pred, target [][]float64, w []float64, grad [][]float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	inv := 1 / float64(len(pred))
	var sum float64
	for t := range pred {
		wt := 1.0
		if w != nil {
			wt = w[t]
		}
		for d := range pred[t] {
			diff := pred[t][d] - target[t][d]
			sum += wt * diff * diff
			grad[t][d] = 2 * wt * diff * inv
		}
	}
	return sum * inv
}

// Scaled multiplies another loss (and its gradient) by a constant factor.
// Models train on unit-normalized coordinates where per-step displacements
// are tiny; scaling the loss back to physical units (factor = scale²) keeps
// SGD gradient magnitudes in a healthy range without changing the optimum.
type Scaled struct {
	Inner  Loss
	Factor float64
}

// LossGrad implements Loss.
func (l Scaled) LossGrad(pred, target [][]float64, w []float64, grad [][]float64) float64 {
	v := l.Inner.LossGrad(pred, target, w, grad)
	for t := range grad {
		for d := range grad[t] {
			grad[t][d] *= l.Factor
		}
	}
	return v * l.Factor
}
