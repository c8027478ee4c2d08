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
// shape (hidden 16, seqIn 5, seqOut 1), BatchGrad over a weighted support
// set at the offline benchmark's shape (69 samples, hidden 12, seqIn 5,
// seqOut 1: the unit of meta-training, whose first encoder step takes the
// input-column sweep), one LSTM forward and one backward step at the
// encoder and decoder shapes (hidden 12, in 4 and in 2), and the Adam
// step. Predict and the steps cycle over nnInputs seeded inputs,
// so no op repeats the previous op's input and the branch predictor cannot
// learn one input's path.
//
// The model's displacement head is drawn non-zero, as a trained model's
// is: NewSeq2Seq zeroes it, and a zero head sends a zero gradient into
// every LSTM step, so Grad would skip every row of both cells' backward.
func nnSpecs() []Spec {
	rng := rand.New(rand.NewSource(1))
	lstm := nn.NewSeq2Seq(4, 2, 16, rng)
	w := lstm.Weights()
	for i := len(w) - lstm.OutDim*(lstm.Hidden+1); i < len(w); i++ {
		w[i] = rng.NormFloat64() * 0.2
	}
	sampleRng := rand.New(rand.NewSource(1))
	s := randSample(sampleRng, 4, 2, 5, 1)
	inputs := make([][][]float64, nnInputs)
	for i := range inputs {
		inputs[i] = randSample(sampleRng, 4, 2, 5, 1).In
	}
	support, batchModel := supportSet(rand.New(rand.NewSource(2)))
	return []Spec{
		{Name: "Seq2SeqPredict", Run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lstm.Predict(inputs[i%nnInputs], 1)
			}
		}},
		{Name: "Seq2SeqGrad", Run: func(b *testing.B) {
			grad := nn.NewVector(lstm.NumParams())
			for i := 0; i < b.N; i++ {
				grad.Zero()
				lstm.Grad(s.In, s.Out, nn.MSE{}, grad)
			}
		}},
		{Name: "Seq2SeqBatchGrad", Run: func(b *testing.B) {
			grad := nn.NewVector(batchModel.NumParams())
			var loss nn.Loss = nn.Scaled{Inner: nn.WeightedMSE{}, Factor: 2500}
			for i := 0; i < b.N; i++ {
				batchModel.BatchGrad(support, loss, grad)
			}
		}},
		stepSpec("LSTMForwardStep", nn.LSTMStepFunc, 4),
		stepSpec("LSTMForwardStep", nn.LSTMStepFunc, 2),
		stepSpec("LSTMBackwardStep", nn.LSTMBackwardStepFunc, 4),
		stepSpec("LSTMBackwardStep", nn.LSTMBackwardStepFunc, 2),
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

// nnInputs is how many seeded inputs the Predict and step rows cycle over.
const nnInputs = 64

// stepSpec times the LSTM step fn builds at hidden 12 with in inputs.
func stepSpec(name string, fn func(in, hidden, n int, rng *rand.Rand) func(), in int) Spec {
	step := fn(in, 12, nnInputs, rand.New(rand.NewSource(1)))
	return Spec{Name: fmt.Sprintf("%s/h12_in%d", name, in), Run: func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			step()
		}
	}}
}

// supportSet draws a support set of 69 samples at the offline benchmark's
// shape, each target weighted in [1, 3) as f_w weighs them, and a model
// at hidden 12 with a non-zero displacement head to take its gradient.
func supportSet(rng *rand.Rand) ([]nn.Sample, *nn.Seq2Seq) {
	m := nn.NewSeq2Seq(4, 2, 12, rng)
	w := m.Weights()
	for i := len(w) - m.OutDim*(m.Hidden+1); i < len(w); i++ {
		w[i] = rng.NormFloat64() * 0.2
	}
	support := make([]nn.Sample, 69)
	for i := range support {
		support[i] = randSample(rng, 4, 2, 5, 1)
		support[i].W = []float64{1 + 2*rng.Float64()}
	}
	return support, m
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
