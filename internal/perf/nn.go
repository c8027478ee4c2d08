package perf

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/spatialcrowd/tamp/internal/nn"
)

var nnSuite = Suite{
	Name:  "nn",
	Note:  "NN hot-path kernel costs; baseline is preserved across runs — compare current against it.",
	Specs: nnSpecs,
}

// nnSpecs time the encoder–decoder's Predict and Grad at the production
// shape (hidden 16, seqIn 5, seqOut 1), one LSTM forward step at the
// encoder and decoder shapes (hidden 12, in 4 and in 2), and the Adam step.
func nnSpecs() []Spec {
	lstm := nn.NewSeq2Seq(4, 2, 16, rand.New(rand.NewSource(1)))
	s := randSample(rand.New(rand.NewSource(1)), 4, 2, 5, 1)
	return []Spec{
		{Name: "Seq2SeqPredict", Run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lstm.Predict(s.In, 1)
			}
		}},
		{Name: "Seq2SeqGrad", Run: func(b *testing.B) {
			grad := nn.NewVector(lstm.NumParams())
			for i := 0; i < b.N; i++ {
				grad.Zero()
				lstm.Grad(s.In, s.Out, nn.MSE{}, grad)
			}
		}},
		stepSpec(4),
		stepSpec(2),
		{Name: "AdamStep", Run: func(b *testing.B) {
			w := nn.RandomVector(4096, 0.1, rand.New(rand.NewSource(1)))
			g := nn.RandomVector(4096, 0.1, rand.New(rand.NewSource(2)))
			opt := nn.NewAdam(0.001)
			for i := 0; i < b.N; i++ {
				opt.Step(w, g)
			}
		}},
	}
}

// stepSpec times one LSTM forward step at hidden 12 with in inputs.
func stepSpec(in int) Spec {
	step := nn.LSTMStepFunc(in, 12, rand.New(rand.NewSource(1)))
	return Spec{Name: fmt.Sprintf("LSTMForwardStep/h12_in%d", in), Run: func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			step()
		}
	}}
}

func randSample(rng *rand.Rand, inDim, outDim, seqIn, seqOut int) nn.Sample {
	var s nn.Sample
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
