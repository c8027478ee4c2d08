package predict

import (
	"context"
	"os"
	"testing"

	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/traj"
)

// TestHyperparameterSweep is an opt-in diagnostic (set TAMP_SWEEP=1): it
// prints one-step-ahead model MSE vs the standing-still baseline across
// model sizes and meta-training lengths.
func TestHyperparameterSweep(t *testing.T) {
	if os.Getenv("TAMP_SWEEP") == "" {
		t.Skip("diagnostic; set TAMP_SWEEP=1 to run")
	}
	w := tinyWorkload(dataset.Workload1)
	evalMSE := func(opts Options) (model, still float64) {
		res, err := Train(context.Background(), w, opts)
		if err != nil {
			t.Fatal(err)
		}
		var n int
		for i := range w.Workers {
			wk := &w.Workers[i]
			if wk.New {
				continue
			}
			m := res.Models[wk.ID]
			samples := traj.ExtractSamples(wk.TestDays[0], opts.SeqIn, opts.SeqOut, 2)
			for _, s := range samples {
				fut := m.PredictFuture(s.In, len(s.Out))
				for k := range s.Out {
					model += s.Out[k].DistSq(fut[k])
					still += s.Out[k].DistSq(s.In[len(s.In)-1])
					n++
				}
			}
		}
		return model / float64(n), still / float64(n)
	}
	for _, hidden := range []int{4, 8, 16} {
		for _, iters := range []int{20, 60} {
			opts := Options{SeqIn: 3, SeqOut: 1, Hidden: hidden, MetaIters: iters, Seed: 1}
			m, s := evalMSE(opts)
			t.Logf("hidden=%d iters=%d  model=%.3f still=%.3f", hidden, iters, m, s)
		}
	}
}
