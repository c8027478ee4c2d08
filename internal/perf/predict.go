package perf

import (
	"context"
	"math"
	"math/rand"
	"runtime"
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

const predictNote = "Prediction-engine costs (forecast cache, allocation-free rollouts); baseline is the replaced path (recompute-every-call forecasts), measured interleaved with the current side so each ratio compares adjacent observations."

const predictHorizon = 8

// predictModel builds the benchmark predictor at the production shape
// (hidden 16, SeqIn 5 — the internal/nn benchmark workload).
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

// measureSimulate times a PPI simulation of the stationary workload, with a
// forecast memo or, as the uncached reference, without one.
func measureSimulate(name string, cached bool) (Result, error) {
	w, models, err := stationaryWorkload()
	if err != nil {
		return Result{}, err
	}
	run := platform.Run{Workload: w, Models: models, Assigner: assign.PPI{A: predict.DefaultMatchRadius}}
	if cached {
		// Long-lived cache, the server pattern: steady-state iterations run
		// warm instead of re-paying the first pass's misses every time.
		run.Forecasts = predict.NewForecastCache(0)
	}
	r := measure(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := run.Simulate(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	return r, nil
}

// predictSpec pairs one benchmark's production path with the path the
// engine replaced. Keeping both closures in one spec lets the fresh-file
// writer measure them adjacent in time, so neighbor noise — which drifts
// over seconds on shared machines — hits both sides of the speedup ratio
// roughly equally instead of poisoning one.
type predictSpec struct {
	name    string
	current func(b *testing.B)
	oracle  func(b *testing.B)
}

// predictSpecs builds the micro-benchmark suite (everything except the
// end-to-end simulate pair, which needs the trained workload).
//
// The oracle sides are the replaced paths: the allocating PredictFuture for
// the Into variant and recompute-every-tick for the cache hit.
func predictSpecs() []predictSpec {
	wm := predictModel(1)
	trace := predictTrace(1, 32)
	at := geo.Pt(42, 17)
	still := []geo.Point{at, at, at, at, at}

	cache := predict.NewForecastCache(0)
	cache.Forecast(wm, still, predictHorizon) // warm: the steady-state hit is what serving pays

	return []predictSpec{
		{
			name: "PredictFuture",
			current: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					wm.PredictFuture(trace, predictHorizon)
				}
			},
			oracle: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					wm.PredictFuture(trace, predictHorizon)
				}
			},
		},
		{
			name: "PredictFutureInto",
			current: func(b *testing.B) {
				dst := make([]geo.Point, 0, predictHorizon)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dst = wm.PredictFutureInto(dst[:0], trace, predictHorizon)
				}
			},
			oracle: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					wm.PredictFuture(trace, predictHorizon)
				}
			},
		},
		{
			name: "ForecastCacheHit",
			current: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cache.Forecast(wm, still, predictHorizon)
				}
			},
			oracle: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					wm.PredictFuture(still, predictHorizon)
				}
			},
		},
	}
}

// RunPredict executes the prediction-engine suite on the production path:
// memoized forecasts and the allocation-free rollout.
func RunPredict() ([]Result, error) {
	var results []Result
	for _, sp := range predictSpecs() {
		results = append(results, measure(sp.name, sp.current))
	}
	sim, err := measureSimulate("SimulateStationary", true)
	if err != nil {
		return nil, err
	}
	return append(results, sim), nil
}

// RunPredictOracle executes the same suite along the paths the engine
// replaced — recompute-every-call forecasts — producing the Baseline of a
// fresh BENCH_predict.json, so the speedup the cache buys is pinned in the
// artifact.
func RunPredictOracle() ([]Result, error) {
	var results []Result
	for _, sp := range predictSpecs() {
		results = append(results, measure(sp.name, sp.oracle))
	}
	sim, err := measureSimulate("SimulateStationary", false)
	if err != nil {
		return nil, err
	}
	return append(results, sim), nil
}

// WritePredictJSON measures the production suite and writes path in the
// BENCH_nn.json schema. An existing file keeps its Baseline (and Note); a
// fresh file additionally runs the replaced-path oracle and records it as
// the Baseline — measured interleaved with the production side, each pair
// back to back, so the recorded speedups are ratios between adjacent
// observations rather than between two distant noise regimes.
func WritePredictJSON(path string) (File, error) {
	if prev, err := LoadFile(path); err == nil && len(prev.Baseline) > 0 {
		cur, err := RunPredict()
		if err != nil {
			return File{}, err
		}
		return WritePredictJSONWith(path, cur)
	}
	var base, cur []Result
	for _, sp := range predictSpecs() {
		base = append(base, measure(sp.name, sp.oracle))
		cur = append(cur, measure(sp.name, sp.current))
	}
	ob, err := measureSimulate("SimulateStationary", false)
	if err != nil {
		return File{}, err
	}
	oc, err := measureSimulate("SimulateStationary", true)
	if err != nil {
		return File{}, err
	}
	f := File{
		Note:     predictNote,
		GoOS:     runtime.GOOS,
		GoArch:   runtime.GOARCH,
		Baseline: append(base, ob),
		Current:  append(cur, oc),
	}
	return f, writeFile(path, f)
}

// WritePredictJSONWith is WritePredictJSON for an already-measured run, so
// one suite execution can feed both the regression check and the artifact.
func WritePredictJSONWith(path string, cur []Result) (File, error) {
	f := File{
		Note:   predictNote,
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
	}
	if prev, err := LoadFile(path); err == nil && len(prev.Baseline) > 0 {
		f.Baseline = prev.Baseline
		if prev.Note != "" {
			f.Note = prev.Note
		}
	}
	if f.Baseline == nil {
		oracle, err := RunPredictOracle()
		if err != nil {
			return File{}, err
		}
		f.Baseline = oracle
	}
	f.Current = cur
	return f, writeFile(path, f)
}
