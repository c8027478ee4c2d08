package core

import (
	"context"
	"math"
	"slices"
	"sort"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/par"
	"github.com/spatialcrowd/tamp/internal/predict"
)

// PredHorizon is how many ticks ahead a batch forecasts each worker. Every
// caller of PlanBatch forecasts this window, so the shard's, the replay's and
// the simulator's plans are comparable. Autoregressive rollouts accumulate
// error, so the platform only trusts a bounded window: tasks farther out are
// matched in later batches as they carry over.
const PredHorizon = 8

// PlanBatch is the batch step the live shard, the offline replay and the
// simulator share. It forecasts every worker of in over PredHorizon — with
// rollouts only when forecast is set, since otherwise nothing reads them —
// matches the batch with match, and numbers the plan's pairs as offers from
// firstOffer, in plan order. A worker with a model and a non-empty window is
// rolled out through SafeForecast; every other worker, and every failed
// rollout, stands still, and predFallbacks counts the failed rollouts. An
// empty batch returns no offers and never calls match. A ctx cancelled by
// the end of the matching returns its error: the plan may be partial, so no
// offers are made from it.
func PlanBatch(ctx context.Context, in BatchInput, forecast bool, models map[int]*predict.WorkerModel, fc *predict.ForecastCache, parallelism, firstOffer int, match func([]assign.Task, []assign.Worker) []assign.Pair) (offers []OfferIssued, predFallbacks int, err error) {
	if len(in.Tasks) == 0 || len(in.Workers) == 0 {
		return nil, 0, nil
	}
	if !forecast {
		models = nil
	}
	if err := in.forecast(ctx, models, fc, PredHorizon, parallelism); err != nil {
		return nil, 0, err
	}
	pairs := match(in.Tasks, in.Workers)
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	offers = make([]OfferIssued, len(pairs))
	for i, pr := range pairs {
		offers[i] = OfferIssued{
			OfferID:  firstOffer + i,
			TaskID:   in.TaskIDs[pr.Task],
			WorkerID: in.Workers[pr.Worker].ID,
		}
	}
	return offers, in.PredFallbacks, nil
}

// BatchInput is the input of one batch: its tasks and its workers, each
// worker with the window of locations the platform observed for it.
// SelectBatch reads one from the state; the simulator takes the tasks from
// its state (SelectTasks) and builds the workers from the true paths.
// TaskIDs[i] is the ID offers name Tasks[i] by.
type BatchInput struct {
	Tasks   []assign.Task
	TaskIDs []int
	Workers []assign.Worker
	// Windows[i] is what Workers[i]'s forecast rolls out from; an empty
	// window stands the worker still.
	Windows [][]geo.Point
	// PredFallbacks counts workers whose model forecast failed (panic or
	// non-finite output) and were degraded to a stand-still prediction.
	PredFallbacks int
}

// SelectTasks sets in's tasks to those a batch at st's tick offers: every
// open task, in (Arrival, ID) order, reusing in's backing arrays. An open
// task is never past its deadline — TickAdvanced expires it first.
func (in *BatchInput) SelectTasks(st *State) {
	in.Tasks = slices.Grow(in.Tasks[:0], len(st.live))
	in.TaskIDs = slices.Grow(in.TaskIDs[:0], len(st.live))
	for _, t := range st.live {
		if t.Status == StatusOpen {
			in.Tasks = append(in.Tasks, t.Task)
			in.TaskIDs = append(in.TaskIDs, t.Task.ID)
		}
	}
}

// SelectBatch reads the batch input from the state: the tasks SelectTasks
// selects and the online, offer-free workers with at least one reported
// location in ascending ID order, so the plan is independent of map
// iteration order, each worker's window its reported trace. A batch with no
// task or no worker is the zero BatchInput. The windows alias the state's
// traces.
func SelectBatch(st *State) BatchInput {
	var workerIDs []int
	for id, w := range st.Workers {
		if !w.Online || w.OfferID != 0 || len(w.Trace) == 0 {
			continue
		}
		workerIDs = append(workerIDs, id)
	}
	var in BatchInput
	in.SelectTasks(st)
	if len(in.Tasks) == 0 || len(workerIDs) == 0 {
		return BatchInput{}
	}
	sort.Ints(workerIDs)
	in.Workers = make([]assign.Worker, len(workerIDs))
	in.Windows = make([][]geo.Point, len(workerIDs))
	for i, id := range workerIDs {
		w := st.Workers[id]
		in.Workers[i] = assign.Worker{
			ID: w.ID, Loc: w.Trace[len(w.Trace)-1], Detour: w.Detour, Speed: w.Speed, MR: w.MR,
		}
		in.Windows[i] = w.Trace
	}
	return in
}

// BuildBatch is SelectBatch with every worker forecast over predHorizon,
// the way PlanBatch forecasts a batch that reads forecasts.
//
// fc memoizes the rollouts across batches (stationary workers reuse their
// forecasts bit-identically); a nil fc recomputes every forecast, with
// identical results either way.
func BuildBatch(ctx context.Context, st *State, models map[int]*predict.WorkerModel, fc *predict.ForecastCache, predHorizon, parallelism int) (BatchInput, error) {
	in := SelectBatch(st)
	if err := in.forecast(ctx, models, fc, predHorizon, parallelism); err != nil {
		return BatchInput{}, err
	}
	return in, nil
}

// forecast fills every worker's Predicted over horizon and counts the failed
// rollouts in PredFallbacks. The rollouts — the expensive part of a batch —
// fan out on the pool; every slot is index-addressed, so the result is
// bit-identical at any parallelism level. A cancelled ctx abandons it.
func (in *BatchInput) forecast(ctx context.Context, models map[int]*predict.WorkerModel, fc *predict.ForecastCache, horizon, parallelism int) error {
	// fellBack is index-addressed per worker and reduced after the pool
	// joins, so the counter needs no synchronization inside the closure.
	fellBack := make([]bool, len(in.Workers))
	if err := par.ForEach(ctx, len(in.Workers), parallelism, func(i int) error {
		w := &in.Workers[i]
		if m := models[w.ID]; m != nil && len(in.Windows[i]) > 0 {
			w.Predicted = SafeForecast(fc, m, in.Windows[i], horizon)
			fellBack[i] = w.Predicted == nil
		}
		if w.Predicted == nil {
			// No model, no window, or its forecast failed: the worker
			// stands still rather than dropping out of the batch.
			w.Predicted = StandStill(w.Loc, horizon)
		}
		return nil
	}); err != nil {
		return err
	}
	for _, fb := range fellBack {
		if fb {
			in.PredFallbacks++
		}
	}
	return nil
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
