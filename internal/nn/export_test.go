package nn

// RefPredict is Seq2Seq.Predict with every step taken by the scalar
// reference kernels (refLSTMForward, refLinearForward). Exported to the
// external test package only, which needs internal/predict on top of the
// oracle and so cannot live inside package nn.
func RefPredict(m *Seq2Seq, in [][]float64, seqOut int) [][]float64 {
	_, preds := refSeq2SeqGrad(m, in, growRows(nil, seqOut, m.OutDim), MSE{}, NewVector(m.NumParams()))
	return preds
}
