package predict

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/meta"
	"github.com/spatialcrowd/tamp/internal/traj"
)

func tinyWorkload(kind dataset.Kind) *dataset.Workload {
	p := dataset.Defaults(kind)
	p.NumWorkers = 8
	p.NewWorkers = 2
	p.TrainDays = 2
	p.TestDays = 1
	p.TicksPerDay = 50
	p.NumTestTasks = 100
	p.NumPOIs = 60
	return dataset.Generate(p)
}

func tinyOptions() Options {
	return Options{SeqIn: 3, SeqOut: 1, Hidden: 6, MetaIters: 4, Seed: 1}
}

func TestBuildLearningTasks(t *testing.T) {
	w := tinyWorkload(dataset.Workload1)
	tasks, norm := BuildLearningTasks(w, 3, 1)
	if len(tasks) != 8 {
		t.Fatalf("tasks = %d, want 8 (established only)", len(tasks))
	}
	for _, task := range tasks {
		if len(task.Support) == 0 || len(task.Query) == 0 {
			t.Fatalf("worker %d: empty support/query", task.WorkerID)
		}
		if len(task.Features.Points) == 0 {
			t.Errorf("worker %d: no distribution feature", task.WorkerID)
		}
		if len(task.Features.Points) > maxFeaturePoints {
			t.Errorf("worker %d: %d feature points exceeds cap", task.WorkerID, len(task.Features.Points))
		}
		if len(task.Features.POIs) > maxFeaturePOIs {
			t.Errorf("worker %d: %d POIs exceeds cap", task.WorkerID, len(task.Features.POIs))
		}
		for _, s := range task.Support {
			if len(s.In) != 3 || len(s.Out) != 1 {
				t.Fatalf("bad sample shape %d/%d", len(s.In), len(s.Out))
			}
			for _, p := range s.In {
				if math.Abs(p[0]) > 1.01 || math.Abs(p[1]) > 1.01 {
					t.Fatalf("sample not normalized: %v", p)
				}
			}
		}
	}
	// Normalizer round-trips.
	q := norm.Denorm(norm.Norm(geo.Pt(42, 17)))
	if q.Dist(geo.Pt(42, 17)) > 1e-9 {
		t.Error("normalizer broken")
	}
}

func TestBuildTaskForColdStart(t *testing.T) {
	w := tinyWorkload(dataset.Workload1)
	var cold *dataset.Worker
	for i := range w.Workers {
		if w.Workers[i].New {
			cold = &w.Workers[i]
			break
		}
	}
	if cold == nil {
		t.Fatal("no cold-start worker")
	}
	task, _ := BuildTaskFor(w, cold, 3, 1)
	if task.WorkerID != cold.ID {
		t.Errorf("task worker = %d", task.WorkerID)
	}
	if len(task.Support) == 0 {
		t.Error("cold-start task has no support samples")
	}
}

func TestMatchingRate(t *testing.T) {
	actual := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(2, 0), geo.Pt(3, 0)}
	pred := []geo.Point{geo.Pt(0, 0.5), geo.Pt(1, 3), geo.Pt(2, 0.9), geo.Pt(9, 9)}
	if got := MatchingRate(actual, pred, 1); got != 0.5 {
		t.Errorf("MR = %v, want 0.5", got)
	}
	if got := MatchingRate(actual, pred[:2], 1); got != 0.5 {
		t.Errorf("prefix MR = %v, want 0.5", got)
	}
	if got := MatchingRate(nil, pred, 1); got != 0 {
		t.Errorf("empty MR = %v", got)
	}
	if got := MatchingRate(actual, actual, 0); got != 1 {
		t.Errorf("self MR = %v, want 1", got)
	}
}

func TestTaskOrientedWeight(t *testing.T) {
	g := geo.Grid{Cols: 20, Rows: 20}
	d := geo.NewDensityIndex(g)
	for i := 0; i < 50; i++ {
		d.Add(geo.Pt(5, 5)) // hotspot
	}
	norm := traj.NewNormalizer(g)
	fw := TaskOrientedWeight(d, norm, 2, 0.8, 0.5)
	hot := norm.Norm(geo.Pt(5, 5))
	cold := norm.Norm(geo.Pt(15, 15))
	wHot := fw(0, []float64{hot.X, hot.Y})
	wCold := fw(0, []float64{cold.X, cold.Y})
	if wHot <= wCold {
		t.Errorf("hotspot weight %v <= cold weight %v", wHot, wCold)
	}
	if math.Abs(wCold-0.5) > 1e-9 {
		t.Errorf("cold weight = %v, want δ=0.5", wCold)
	}
}

func TestTrainPipelineGTTAML(t *testing.T) {
	w := tinyWorkload(dataset.Workload1)
	res, err := Train(context.Background(), w, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trained.Algorithm != meta.AlgGTTAML {
		t.Errorf("algorithm = %q", res.Trained.Algorithm)
	}
	if len(res.Models) != len(w.Workers) {
		t.Fatalf("models = %d, want %d (including cold start)", len(res.Models), len(w.Workers))
	}
	for id, m := range res.Models {
		if m.MR < 0 || m.MR > 1 {
			t.Errorf("worker %d MR = %v", id, m.MR)
		}
	}
	if res.Eval.N == 0 {
		t.Error("evaluation scored no points")
	}
	if math.IsNaN(res.Eval.RMSE) || res.Eval.RMSE <= 0 {
		t.Errorf("RMSE = %v", res.Eval.RMSE)
	}
	if res.Eval.MAE > res.Eval.RMSE {
		t.Errorf("MAE %v > RMSE %v", res.Eval.MAE, res.Eval.RMSE)
	}
	if res.TrainTime <= 0 {
		t.Error("train time not recorded")
	}
}

// TestTrainReleasesItsInputs: the Result keeps no training sample and no
// learning path alive, its tree still adapts a cold-start worker to the very
// model Train built for them, and adapting an established worker again fails
// by name rather than returning the bare initialization.
func TestTrainReleasesItsInputs(t *testing.T) {
	w := tinyWorkload(dataset.Workload1)
	opts := tinyOptions()
	res, err := Train(context.Background(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trained.Tasks) == 0 {
		t.Fatal("no learning tasks")
	}
	for i, task := range res.Trained.Tasks {
		if task.Support != nil || task.Query != nil || task.Features.Path != nil {
			t.Errorf("task %d still holds %d support, %d query samples, %d path steps",
				i, len(task.Support), len(task.Query), len(task.Features.Path))
		}
	}
	cold := 0
	for i := range w.Workers {
		wk := &w.Workers[i]
		if !wk.New {
			continue
		}
		cold++
		task, _ := BuildTaskFor(w, wk, opts.SeqIn, opts.SeqOut)
		again := res.Trained.AdaptNew(task).Weights()
		built := res.Models[wk.ID].Model.Weights()
		if len(again) != len(built) {
			t.Fatalf("worker %d: %d weights, Train built %d", wk.ID, len(again), len(built))
		}
		for k := range again {
			if math.Float64bits(again[k]) != math.Float64bits(built[k]) {
				t.Fatalf("worker %d: cold-start adaptation on the released set differs from Train's model at weight %d", wk.ID, k)
			}
		}
	}
	if cold == 0 {
		t.Fatal("workload has no cold-start worker")
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "Release") {
			t.Fatalf("AdaptedModel after Train: recovered %q, want a panic naming Release", msg)
		}
	}()
	res.Trained.AdaptedModel(0)
}

// TestTrainSizesTheMemoToTheHorizon: the Result's forecast memo holds one
// entry per tick of the test horizon for each worker, so a whole pass fits
// and the next one finds it.
func TestTrainSizesTheMemoToTheHorizon(t *testing.T) {
	w := tinyWorkload(dataset.Workload1)
	res, err := Train(context.Background(), w, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	horizon := w.Params.TestDays * w.Params.TicksPerDay
	if horizon <= DefaultCacheMaxPerWorker {
		t.Fatalf("horizon %d does not exceed the LRU default; the test is vacuous", horizon)
	}
	wk := &w.Workers[0]
	wm := res.Models[wk.ID]
	rng := rand.New(rand.NewSource(5))
	traces := make([][]geo.Point, horizon+3)
	for i := range traces {
		traces[i] = randTrace(rng, 4)
		res.Forecasts.Forecast(wm, traces[i], 6)
	}
	if got := res.Forecasts.Len(); got != horizon {
		t.Fatalf("memo holds %d entries for one worker after %d distinct windows, want the horizon %d", got, len(traces), horizon)
	}
	if _, _, evictions := res.Forecasts.Stats(); evictions != 3 {
		t.Fatalf("evictions = %d, want 3", evictions)
	}
}

func TestTrainPipelineAllAlgorithms(t *testing.T) {
	w := tinyWorkload(dataset.Workload1)
	for _, alg := range []string{meta.AlgMAML, meta.AlgCTML, meta.AlgGTTAMLGT, meta.AlgGTTAML} {
		opts := tinyOptions()
		opts.Algorithm = alg
		res, err := Train(context.Background(), w, opts)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Trained.Algorithm != alg {
			t.Errorf("%s: got %q", alg, res.Trained.Algorithm)
		}
	}
}

func TestTrainPipelineUnknownAlgorithm(t *testing.T) {
	w := tinyWorkload(dataset.Workload1)
	opts := tinyOptions()
	opts.Algorithm = "nope"
	if _, err := Train(context.Background(), w, opts); err == nil {
		t.Error("expected error")
	}
}

func TestTrainPipelineWeightedLoss(t *testing.T) {
	w := tinyWorkload(dataset.Workload1)
	opts := tinyOptions()
	opts.WeightedLoss = true
	res, err := Train(context.Background(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Eval.N == 0 {
		t.Error("weighted-loss pipeline scored nothing")
	}
}

func TestPredictFutureShape(t *testing.T) {
	w := tinyWorkload(dataset.Workload1)
	res, err := Train(context.Background(), w, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	wk := &w.Workers[0]
	model := res.Models[wk.ID]
	recent := wk.TestDays[0].Points[:5]
	fut := model.PredictFuture(recent, 7)
	if len(fut) != 7 {
		t.Fatalf("future length = %d, want 7", len(fut))
	}
	for _, p := range fut {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			t.Fatal("NaN prediction")
		}
	}
	// Short context still works via padding.
	fut = model.PredictFuture(recent[:1], 3)
	if len(fut) != 3 {
		t.Fatalf("padded future length = %d", len(fut))
	}
	if got := model.PredictFuture(nil, 3); got != nil {
		t.Error("empty context should yield nil")
	}
	if got := model.PredictFuture(recent, 0); got != nil {
		t.Error("zero horizon should yield nil")
	}
}

func TestEvaluateOnRoutine(t *testing.T) {
	w := tinyWorkload(dataset.Workload1)
	res, err := Train(context.Background(), w, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	wk := &w.Workers[0]
	ev := res.Models[wk.ID].EvaluateOnRoutine(wk.TestDays[0], DefaultMatchRadius)
	if ev.N == 0 {
		t.Fatal("no points evaluated")
	}
	if ev.MR < 0 || ev.MR > 1 {
		t.Errorf("MR = %v", ev.MR)
	}
	if ev.RMSE < ev.MAE {
		t.Errorf("RMSE %v < MAE %v", ev.RMSE, ev.MAE)
	}
}

// TestPredictionBeatsStandingStill checks the trained predictor beats the
// trivial "worker never moves" baseline on test-day data — the minimum bar
// for the mobility model to be useful for assignment.
func TestPredictionBeatsStandingStill(t *testing.T) {
	w := tinyWorkload(dataset.Workload1)
	opts := tinyOptions()
	opts.Hidden = 8
	opts.MetaIters = 60
	res, err := Train(context.Background(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	var modelSE, stillSE float64
	var n int
	for i := range w.Workers {
		wk := &w.Workers[i]
		if wk.New {
			continue
		}
		model := res.Models[wk.ID]
		samples := traj.ExtractSamples(wk.TestDays[0], opts.SeqIn, opts.SeqOut, 2)
		for _, s := range samples {
			fut := model.PredictFuture(s.In, len(s.Out))
			for k := range s.Out {
				modelSE += s.Out[k].DistSq(fut[k])
				stillSE += s.Out[k].DistSq(s.In[len(s.In)-1])
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("no samples")
	}
	if modelSE >= stillSE {
		t.Errorf("model MSE %v not better than standing-still %v", modelSE/float64(n), stillSE/float64(n))
	}
}
