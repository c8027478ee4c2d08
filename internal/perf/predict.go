package perf

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/platform"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/traj"
)

var predictSuite = Suite{
	Name:  "predict",
	Note:  "Prediction-engine costs (forecast cache, allocation-free rollouts); baseline is the replaced path (recompute-every-call forecasts), measured interleaved with the current side so each ratio compares adjacent observations.",
	Specs: predictSpecs,
}

const predictHorizon = 8

// predictModel builds the benchmark predictor at the production shape
// (hidden 16, SeqIn 5 — the nn suite's shape).
func predictModel(seed int64) *predict.WorkerModel {
	return &predict.WorkerModel{
		WorkerID: 1,
		Model:    nn.NewSeq2Seq(predict.InputDims, 2, 16, rand.New(rand.NewSource(seed))),
		Norm:     traj.Normalizer{CenterX: 50, CenterY: 50, Scale: 50},
		SeqIn:    5,
		SeqOut:   1,
	}
}

func predictTrace(seed int64, n int) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geo.Point, n)
	x, y := rng.Float64()*100, rng.Float64()*100
	for i := range out {
		x += rng.NormFloat64()
		y += rng.NormFloat64()
		out[i] = geo.Pt(x, y)
	}
	return out
}

// stationaryWorkload is the end-to-end benchmark scenario: the
// check-in-style workload (long dwells) with every test-day fix snapped to
// a 1-cell grid, the way quantized GPS reports repeat bit-for-bit while a
// worker idles at a POI. Built once — training dominates setup — and shared
// by the cached and uncached measurements, which is safe because simulation
// never mutates the models.
var stationaryOnce struct {
	sync.Once
	w      *dataset.Workload
	models map[int]*predict.WorkerModel
	err    error
}

func stationaryWorkload() (*dataset.Workload, map[int]*predict.WorkerModel, error) {
	o := &stationaryOnce
	o.Do(func() {
		p := dataset.Defaults(dataset.Workload2)
		p.NumWorkers = 16
		p.NewWorkers = 0
		p.TrainDays = 2
		p.TestDays = 1
		p.TicksPerDay = 80
		p.NumTestTasks = 200
		p.NumPOIs = 60
		o.w = dataset.Generate(p)
		for wi := range o.w.Workers {
			for di := range o.w.Workers[wi].TestDays {
				pts := o.w.Workers[wi].TestDays[di].Points
				for i, q := range pts {
					pts[i] = geo.Pt(math.Round(q.X), math.Round(q.Y))
				}
			}
		}
		var res *predict.Result
		res, o.err = predict.Train(context.Background(), o.w,
			predict.Options{SeqIn: 5, SeqOut: 1, Hidden: 8, MetaIters: 6, Seed: 2})
		if o.err == nil {
			o.models = res.Models
		}
	})
	return o.w, o.models, o.err
}

// predictSpecs time the rollout, its allocation-free variant, a warm
// forecast-memo hit and a PPI simulation of the stationary workload. The
// before-sides are the paths the engine replaced: the allocating rollout
// and recompute-every-call forecasts.
func predictSpecs() []Spec {
	wm := predictModel(1)
	trace := predictTrace(1, 32)
	at := geo.Pt(42, 17)
	still := []geo.Point{at, at, at, at, at}

	cache := predict.NewForecastCache(0)
	cache.Forecast(wm, still, predictHorizon) // warm: the steady-state hit is what serving pays

	rollout := func(window []geo.Point) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wm.PredictFuture(window, predictHorizon)
			}
		}
	}
	return []Spec{
		{Name: "PredictFuture", Run: rollout(trace)},
		{Name: "PredictFutureInto", Run: func(b *testing.B) {
			dst := make([]geo.Point, 0, predictHorizon)
			for i := 0; i < b.N; i++ {
				dst = wm.PredictFutureInto(dst[:0], trace, predictHorizon)
			}
		}, Before: rollout(trace)},
		{Name: "ForecastCacheHit", Run: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cache.Forecast(wm, still, predictHorizon)
			}
		}, Before: rollout(still)},
		// A long-lived memo, the server pattern: steady-state iterations run
		// warm instead of re-paying the first pass's misses every time.
		{Name: "SimulateStationary", Run: simulateStationary(predict.NewForecastCache(0)), Before: simulateStationary(nil)},
	}
}

// simulateStationary times a PPI simulation of the stationary workload
// through forecasts, or, as the uncached reference, through none.
func simulateStationary(forecasts *predict.ForecastCache) func(b *testing.B) {
	return func(b *testing.B) {
		w, models, err := stationaryWorkload()
		if err != nil {
			panic(err)
		}
		run := platform.Run{Workload: w, Models: models, Assigner: assign.PPI{A: predict.DefaultMatchRadius}, Forecasts: forecasts}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := run.Simulate(context.Background()); err != nil {
				panic(err)
			}
		}
	}
}
