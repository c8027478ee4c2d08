package core

import (
	"context"
	"math"
	"sort"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/par"
	"github.com/spatialcrowd/tamp/internal/predict"
)

// BatchInput is the assignment-ready view of the state for one batch: open,
// unexpired tasks and online, offer-free workers with at least one reported
// location, both in ascending ID order so the plan is independent of map
// iteration order. Workers[i] corresponds to no fixed slot in the state;
// TaskIDs[i] is the state task behind Tasks[i].
type BatchInput struct {
	Tasks   []assign.Task
	TaskIDs []int
	Workers []assign.Worker
	// PredFallbacks counts workers whose model forecast failed (panic or
	// non-finite output) and were degraded to a stand-still prediction.
	PredFallbacks int
}

// BuildBatch assembles the assignment input from the current state. The
// per-worker trajectory rollouts — the expensive part of a batch — fan out
// on the pool; every slot is index-addressed, so the result is bit-identical
// at any parallelism level. A cancelled ctx abandons the build.
//
// This is the single batch-input path shared by the live server and the
// offline replay bridge: replaying a recorded log rebuilds exactly the
// candidate sets the live run saw.
//
// fc memoizes the rollouts across batches (stationary workers reuse their
// forecasts bit-identically); a nil fc recomputes every forecast, with
// identical results either way.
func BuildBatch(ctx context.Context, st *State, models map[int]*predict.WorkerModel, fc *predict.ForecastCache, predHorizon, parallelism int) (BatchInput, error) {
	var in BatchInput
	for id, t := range st.Tasks {
		if t.Status == StatusOpen && t.Task.Deadline >= st.Tick {
			in.TaskIDs = append(in.TaskIDs, id)
		}
	}
	sort.Ints(in.TaskIDs)
	var workerIDs []int
	for id, w := range st.Workers {
		if !w.Online || w.OfferID != 0 || len(w.Trace) == 0 {
			continue
		}
		workerIDs = append(workerIDs, id)
	}
	sort.Ints(workerIDs)
	if len(in.TaskIDs) == 0 || len(workerIDs) == 0 {
		in.TaskIDs = nil
		return in, nil
	}
	in.Tasks = make([]assign.Task, len(in.TaskIDs))
	for i, id := range in.TaskIDs {
		in.Tasks[i] = st.Tasks[id].Task
	}
	in.Workers = make([]assign.Worker, len(workerIDs))
	// fellBack is index-addressed per worker and reduced after the pool
	// joins, so the counter needs no synchronization inside the closure.
	fellBack := make([]bool, len(workerIDs))
	if err := par.ForEach(ctx, len(workerIDs), parallelism, func(i int) error {
		w := st.Workers[workerIDs[i]]
		cur := w.Trace[len(w.Trace)-1]
		aw := assign.Worker{
			ID: w.ID, Loc: cur, Detour: w.Detour, Speed: w.Speed, MR: w.MR,
		}
		if m := models[w.ID]; m != nil {
			aw.Predicted = SafeForecast(fc, m, w.Trace, predHorizon)
			if aw.Predicted == nil {
				fellBack[i] = true
			}
		}
		if aw.Predicted == nil {
			// No model, or its forecast failed: the worker stands still
			// rather than dropping out of the batch.
			aw.Predicted = StandStill(cur, predHorizon)
		}
		in.Workers[i] = aw
		return nil
	}); err != nil {
		return BatchInput{}, err
	}
	for _, fb := range fellBack {
		if fb {
			in.PredFallbacks++
		}
	}
	return in, nil
}

// StandStill is the forecast of a worker nothing is predicted for: horizon
// copies of its current location, nil when horizon is not positive.
func StandStill(cur geo.Point, horizon int) []geo.Point {
	if horizon <= 0 {
		return nil
	}
	pred := make([]geo.Point, horizon)
	for i := range pred {
		pred[i] = cur
	}
	return pred
}

// SafeForecast isolates one worker's predictor: a panic or a non-finite
// forecast yields nil, and the caller degrades that worker — and only that
// worker — to a stand-still prediction. Forecasts go through fc when
// non-nil; a panicking rollout publishes no cache entry and a cached
// non-finite forecast is re-rejected on every hit, so caching never changes
// the outcome.
func SafeForecast(fc *predict.ForecastCache, m *predict.WorkerModel, trace []geo.Point, horizon int) (pred []geo.Point) {
	defer func() {
		if rec := recover(); rec != nil {
			pred = nil
		}
	}()
	pred = fc.Forecast(m, trace, horizon)
	for _, pt := range pred {
		if math.IsNaN(pt.X) || math.IsNaN(pt.Y) || math.IsInf(pt.X, 0) || math.IsInf(pt.Y, 0) {
			return nil
		}
	}
	return pred
}
