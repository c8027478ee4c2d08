package nn

import "testing"

// RefPredict is Seq2Seq.Predict with every step taken by the scalar
// reference kernels (refLSTMForward, refLinearForward). Exported to the
// external test package only, which needs internal/predict on top of the
// oracle and so cannot live inside package nn.
func RefPredict(m *Seq2Seq, in [][]float64, seqOut int) [][]float64 {
	_, preds := refSeq2SeqGrad(m, in, growRows(nil, seqOut, m.OutDim), MSE{}, NewVector(m.NumParams()))
	return preds
}

// EachKernelPath runs f once on every path an LSTM step can take in this
// process — the lane kernels (gate mat-vec and exp) when the gate chose
// them, then the Go path, forced by switching that one gate off — passing
// KernelPath() so failures name the path. Tests that call it must not run
// in parallel with other nn tests.
func EachKernelPath(t testing.TB, f func(path string)) {
	t.Helper()
	chosen, why := lanes, lanesWhy
	defer func() { lanes, lanesWhy = chosen, why }()
	if chosen {
		f(KernelPath())
		lanes, lanesWhy = false, "forced by test"
	}
	f(KernelPath())
}
