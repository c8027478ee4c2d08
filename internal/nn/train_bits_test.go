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

// TestTrainBitsOnEveryKernelPath trains a smoke-size model set end to end —
// predict.Train's meta-learning and adaptation with the task-weighted
// loss, forward and backward through every LSTM kernel — on every kernel
// path, and requires every trained weight of every worker to be the same
// bits on each. Hidden 13 runs three groups of four units through the lane
// kernels and one unit through the Go path beside them.
func TestTrainBitsOnEveryKernelPath(t *testing.T) {
	p := dataset.Defaults(dataset.Workload1)
	p.Seed = 7
	p.NumWorkers, p.NewWorkers = 6, 1
	p.TrainDays, p.TestDays, p.TicksPerDay = 2, 1, 40
	p.NumTestTasks = 60
	p.NumPOIs = 40
	w := dataset.Generate(p)
	opts := predict.Options{WeightedLoss: true, Hidden: 13, SeqIn: 4, SeqOut: 2, MetaIters: 3, Seed: 7}

	var want []uint64
	nn.EachKernelPath(t, func(path string) {
		res, err := predict.Train(context.Background(), w, opts)
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
		t.Logf("%s: %d models, %d weights, sha256 %s", path, len(res.Models), len(got), digest(got))
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
