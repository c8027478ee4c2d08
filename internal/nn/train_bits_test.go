package nn_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/predict"
)

// trainBitsCases are the trainings TestTrainBitsOnEveryKernelPath runs,
// each with the sha256 of its trained weights under math.Exp's FMA
// sequence (amd64 with FMA, the sequence every pinned figure of the repo
// comes from).
var trainBitsCases = []struct {
	name string
	// workers, newWorkers, trainDays and ticks size the workload.
	workers, newWorkers, trainDays, ticks int
	opts                                  predict.Options
	want                                  string
}{
	// Hidden 13 runs three groups of four units through the lane kernels
	// and one unit through the Go path beside them; SeqOut 2 runs the
	// decoder's input gradient.
	{
		name:    "h13_in4_seq4x2",
		workers: 6, newWorkers: 1, trainDays: 2, ticks: 40,
		opts: predict.Options{WeightedLoss: true, Hidden: 13, SeqIn: 4, SeqOut: 2, MetaIters: 3, Seed: 7},
		want: "030b1d5429fc7988f4bd9ba27b7cfbff8ada8e428d1461bf9e56b1cd980e9a38",
	},
	// The shapes of the benchmark's offline experiment: hidden 12, 4 input
	// dims, SeqIn 5, SeqOut 1, the weighted loss and GTTAML clustering
	// first by Sim_d, with cold-start workers placed by it.
	{
		name:    "h12_in4_seq5x1",
		workers: 8, newWorkers: 2, trainDays: 3, ticks: 48,
		opts: predict.Options{WeightedLoss: true, Hidden: 12, SeqIn: 5, SeqOut: 1, MetaIters: 4, Seed: 3},
		want: "bec7e75daec3126178326c360ade232807e69fdd85d0659fb277782bbd2e68f3",
	},
}

// fmaExpProbe is an argument on which math.Exp's FMA and plain amd64
// sequences round differently; fmaExpBits is the FMA sequence's result.
const (
	fmaExpProbe = 0.9684157578347397
	fmaExpBits  = 0x400511f548f20f6b
)

// TestTrainBitsOnEveryKernelPath trains smoke-size model sets end to end —
// predict.Train's meta-learning and adaptation with the task-weighted
// loss, forward and backward through every LSTM kernel — on every kernel
// path, and requires every trained weight of every worker to be the same
// bits on each, and their sha256 to be the pinned one where math.Exp runs
// the FMA sequence (elsewhere the pin is skipped, saying why; the paths
// must still agree).
func TestTrainBitsOnEveryKernelPath(t *testing.T) {
	pin := math.Float64bits(math.Exp(fmaExpProbe)) == fmaExpBits
	if !pin {
		t.Log("math.Exp does not run the FMA sequence here: the pinned digests are not checked")
	}
	for _, tc := range trainBitsCases {
		t.Run(tc.name, func(t *testing.T) {
			p := dataset.Defaults(dataset.Workload1)
			p.Seed = 7
			p.NumWorkers, p.NewWorkers = tc.workers, tc.newWorkers
			p.TrainDays, p.TestDays, p.TicksPerDay = tc.trainDays, 1, tc.ticks
			p.NumTestTasks = 60
			p.NumPOIs = 40
			w := dataset.Generate(p)

			var want []uint64
			nn.EachKernelPath(t, func(path string) {
				res, err := predict.Train(context.Background(), w, tc.opts)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				ids := make([]int, 0, len(res.Models))
				for id := range res.Models {
					ids = append(ids, id)
				}
				slices.Sort(ids)
				var got []uint64
				for _, id := range ids {
					for _, v := range res.Models[id].Model.Weights() {
						got = append(got, math.Float64bits(v))
					}
				}
				sum := digest(got)
				t.Logf("%s: %d models, %d weights, sha256 %s", path, len(res.Models), len(got), sum)
				if pin && sum != tc.want {
					t.Errorf("%s: sha256 %s, pinned %s", path, sum, tc.want)
				}
				if want == nil {
					want = got
					return
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d weights, first path %d", path, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%s: weight %d is %#016x, first path %#016x", path, k, got[k], want[k])
					}
				}
			})
		})
	}
}

// digest is the sha256 of bits written little-endian, one float64 after
// another.
func digest(bits []uint64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range bits {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
