package nn

// Loss scores a predicted sequence against its target and produces the
// gradient of the loss with respect to the prediction.
type Loss interface {
	// LossGrad returns the scalar loss and writes dLoss/dPred into grad,
	// which has the same shape as pred. Implementations must ADD into grad
	// is not required — they own it per call and may overwrite.
	LossGrad(pred, target, grad [][]float64) float64
}

// MSE is the plain mean-squared-error loss used by the -loss algorithm
// variants (KM-loss, PPI-loss) and by prediction-quality evaluation:
// L = (1/T) Σ_t ‖pred_t − target_t‖².
type MSE struct{}

// LossGrad implements Loss.
func (MSE) LossGrad(pred, target, grad [][]float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	inv := 1 / float64(len(pred))
	var sum float64
	for t := range pred {
		for d := range pred[t] {
			diff := pred[t][d] - target[t][d]
			sum += diff * diff
			grad[t][d] = 2 * diff * inv
		}
	}
	return sum * inv
}

// WeightFn returns the loss weight f_w(l_i) for one target point of a
// training sample (Eq. 7). step is the output-step index; target is the
// ground-truth point in model space. Implementations typically denormalize
// the point and consult a historical-task density index.
type WeightFn func(step int, target []float64) float64

// WeightedMSE is the task-assignment-oriented loss of Eq. 6:
// L = (1/T) Σ_t f_w(l_t)·‖pred_t − target_t‖², where f_w up-weights
// trajectory points around which historical spatial tasks concentrate.
type WeightedMSE struct {
	Weight WeightFn
}

// LossGrad implements Loss.
func (l WeightedMSE) LossGrad(pred, target, grad [][]float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	inv := 1 / float64(len(pred))
	var sum float64
	for t := range pred {
		w := l.Weight(t, target[t])
		for d := range pred[t] {
			diff := pred[t][d] - target[t][d]
			sum += w * diff * diff
			grad[t][d] = 2 * w * diff * inv
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
func (l Scaled) LossGrad(pred, target, grad [][]float64) float64 {
	v := l.Inner.LossGrad(pred, target, grad)
	for t := range grad {
		for d := range grad[t] {
			grad[t][d] *= l.Factor
		}
	}
	return v * l.Factor
}
