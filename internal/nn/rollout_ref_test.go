package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/traj"
)

// refModel is a Seq2Seq whose Predict runs on the scalar reference kernels.
type refModel struct{ *nn.Seq2Seq }

func (m refModel) Predict(in [][]float64, seqOut int) [][]float64 {
	return nn.RefPredict(m.Seq2Seq, in, seqOut)
}

// TestPredictFutureBitsMatchReferenceRollout forecasts from every tick of a
// two-day routine with the production model and with one driven step by step
// through refLSTMForward: 8 autoregressive Predict calls a forecast, each
// feeding the next, must agree to the last bit.
func TestPredictFutureBitsMatchReferenceRollout(t *testing.T) {
	const ticksPerDay, horizon = 60, 8
	rng := rand.New(rand.NewSource(5))
	m := nn.NewSeq2Seq(predict.InputDims, 2, 12, rng)
	// A non-zero head, so forecasts move and feed back through the window.
	w := m.Weights()
	for i := range w {
		if w[i] == 0 {
			w[i] = rng.NormFloat64() * 0.2
		}
	}
	worker := func(model nn.Model) *predict.WorkerModel {
		return &predict.WorkerModel{
			Model:  model,
			Norm:   traj.Normalizer{CenterX: 50, CenterY: 50, Scale: 50},
			SeqIn:  5,
			SeqOut: 1,
		}
	}
	fast, ref := worker(m), worker(refModel{m.Clone()})

	// Home → work → home, twice, with jitter.
	routine := make([]geo.Point, 2*ticksPerDay)
	for i := range routine {
		phase := 2 * math.Pi * float64(i%ticksPerDay) / ticksPerDay
		routine[i] = geo.Pt(50+30*math.Sin(phase)+rng.NormFloat64(), 40+20*math.Cos(phase)+rng.NormFloat64())
	}
	for tick := 1; tick <= len(routine); tick++ {
		got := fast.PredictFuture(routine[:tick], horizon)
		want := ref.PredictFuture(routine[:tick], horizon)
		if len(got) != horizon || len(want) != horizon {
			t.Fatalf("tick %d: %d and %d points, want %d", tick, len(got), len(want), horizon)
		}
		for k := range want {
			if math.Float64bits(got[k].X) != math.Float64bits(want[k].X) ||
				math.Float64bits(got[k].Y) != math.Float64bits(want[k].Y) {
				t.Fatalf("tick %d step %d: %v vs reference %v", tick, k, got[k], want[k])
			}
		}
	}
}
