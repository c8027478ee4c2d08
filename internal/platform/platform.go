// Package platform simulates the online stage of the spatial crowdsourcing
// platform (Fig. 1): spatial tasks arrive over time, assignment runs in
// batch mode once per tick (the paper's 2-minute window), workers accept or
// reject assignments against their true itineraries and detour budgets, and
// rejected tasks carry over to later batches until they expire.
//
// The simulator is the measurement harness behind Figs. 6–11: it accounts
// task completion, rejection, worker detour cost, and assignment-algorithm
// running time.
package platform

import (
	"context"
	"math"
	"sort"
	"time"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/fault"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/par"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/traj"
)

// Metrics aggregates one simulation run, the four measures of §IV-A.
type Metrics struct {
	TotalTasks int // tasks that arrived during the horizon
	Assigned   int // |M| summed over batches
	Accepted   int // |M′|: assignments accepted (and therefore completed)
	SumCostKM  float64
	AssignTime time.Duration // time spent inside the assignment algorithm
	// Faults counts the degraded-mode events a chaos run absorbed; all
	// zero when Run.Faults is nil.
	Faults FaultStats
	// Scenario-workload accounting (internal/scenario); all zero on the
	// paper's always-on, unbudgeted workloads.
	//
	// OffWindow counts worker-batch slots skipped because the worker was
	// outside every availability window. BudgetDenied counts assignments the
	// matcher proposed but the per-tick budget gate withheld (their tasks
	// stay pending). BudgetSpentKM is the predicted detour spend charged
	// against the budget for the offers that were issued.
	OffWindow     int
	BudgetDenied  int
	BudgetSpentKM float64
}

// FaultStats accounts what the fault injector did to a run — the platform's
// receipt that it degraded gracefully instead of crashing.
type FaultStats struct {
	OfflineTicks      int // worker-batch slots removed by churn
	DroppedReports    int // location pings lost before reaching the platform
	NoisyReports      int // location pings perturbed by GPS noise
	PredFallbacks     int // forecasts degraded to stand-still (injected failure, panic, or non-finite output)
	DeferredDecisions int // accept/reject decisions that landed late
}

// CompletionRate is Accepted / TotalTasks.
func (m Metrics) CompletionRate() float64 {
	if m.TotalTasks == 0 {
		return 0
	}
	return float64(m.Accepted) / float64(m.TotalTasks)
}

// RejectionRate is (|M| − |M′|) / |M|.
func (m Metrics) RejectionRate() float64 {
	if m.Assigned == 0 {
		return 0
	}
	return float64(m.Assigned-m.Accepted) / float64(m.Assigned)
}

// AvgCostKM is the mean detour workers travelled per accepted task, in km.
func (m Metrics) AvgCostKM() float64 {
	if m.Accepted == 0 {
		return 0
	}
	return m.SumCostKM / float64(m.Accepted)
}

// Run configures one simulation.
type Run struct {
	Workload *dataset.Workload
	// Models holds each worker's mobility predictor (nil entries degrade
	// that worker to a standing-still prediction). UB and LB ignore them.
	Models   map[int]*predict.WorkerModel
	Assigner assign.Assigner
	// Horizon is how many future ticks of true trajectory the acceptance
	// check and the UB oracle can see; 0 derives it from the maximum task
	// validity.
	Horizon int
	// PredHorizon is how many future ticks the platform forecasts per
	// worker per batch. Autoregressive rollouts accumulate error, so the
	// platform only trusts a bounded window; tasks farther out are matched
	// in later batches as they carry over (default 8).
	PredHorizon int
	// ServiceTicks is the fixed handling time added to a worker's busy
	// window after accepting a task (default 2).
	ServiceTicks int
	// DailyAdaptSteps, when positive, turns on continual prediction: at
	// every day boundary each worker's model takes this many SGD steps on
	// the trajectory the platform observed the previous day.
	DailyAdaptSteps int
	// DailyAdaptLR is the learning rate of the continual updates
	// (default 0.002).
	DailyAdaptLR float64
	// Parallelism bounds the pool used for per-batch worker-view
	// construction (the autoregressive PredictFuture rollouts dominate each
	// tick) and for the daily continual-adaptation pass (0 = GOMAXPROCS).
	// Each worker owns its model exclusively, and every result is
	// index-addressed, so Metrics (AssignTime aside) are bit-identical at
	// every parallelism level. Models must not alias: two worker IDs mapping
	// to the same *WorkerModel would race.
	Parallelism int
	// Faults, when non-nil, runs the simulation in chaos mode: the injector
	// churns workers offline, drops and perturbs location reports, fails
	// predictors (which degrade to stand-still forecasts instead of
	// aborting the batch), and delays accept/reject decisions. Fault
	// decisions are pure functions of (seed, entity, tick), so chaos runs
	// are bit-identical at every parallelism level too. In chaos mode a
	// panicking predictor is recovered per worker; without an injector it
	// surfaces as a *par.PanicError from Simulate.
	Faults *fault.Injector
	// EventSink, when non-nil, receives the run as the platform's typed
	// event vocabulary (internal/core) — the same events a WAL-backed server
	// records: worker registrations up front, then per tick the clock
	// advance, task arrivals, location reports for the workers entering the
	// batch, the batch plan, and each accept/reject decision. A log recorded
	// this way replays through internal/replay exactly like a live server's.
	// Two translations apply: workload IDs are shifted +1 (core requires
	// positive IDs; workloads number from 0), and decisions are recorded
	// when the worker decides, even if the fault injector delivers them to
	// the platform late. A sink error aborts the simulation.
	EventSink func(core.Event) error
	// Forecasts, when non-nil, is the forecast cache the run memoizes
	// PredictFuture rollouts in — exact window-keyed, so cached runs are
	// bit-identical to uncached ones. It must be a cache of Models: the one
	// predict.Train put on the Result the models came from
	// (Result.Forecasts), which every run over that Result shares — the
	// second assigner, sweep point or chaos pass rolls out only the windows
	// the first did not see — or any longer-lived cache of the caller's.
	// The run reports its own share of a handed-in cache's traffic to the
	// context registry. When nil, Simulate builds a private per-run cache
	// unless DisableForecastCache is set.
	Forecasts *predict.ForecastCache
	// DisableForecastCache turns forecast memoization off entirely
	// (every rollout recomputes). The cache-equivalence suite relies on it;
	// production runs have no reason to set it.
	DisableForecastCache bool
}

// recorder allocates offer IDs and forwards events to the sink. A nil
// recorder swallows every emit, so call sites need no sink check.
type recorder struct {
	sink      func(core.Event) error
	nextOffer int
}

func (r *recorder) emit(ev core.Event) error {
	if r == nil {
		return nil
	}
	return r.sink(ev)
}

// pendingTask tracks a task waiting in the pool.
type pendingTask struct {
	task assign.Task
	done bool
	held bool // a deferred accept/reject is in flight; keep out of batches
}

// deferredDecision is an accept/reject outcome computed at assignment time
// but delivered late by the fault injector.
type deferredDecision struct {
	applyAt   int // tick at which the decision reaches the platform
	pt        *pendingTask
	workerID  int
	costCells float64
	accepted  bool
}

// Simulate runs the full test horizon and returns the aggregated metrics.
// Cancelling ctx stops the simulation at the next tick boundary (or between
// a batch's prediction and matching phases) and returns the partial metrics
// alongside ctx.Err().
func (r *Run) Simulate(ctx context.Context) (Metrics, error) {
	p := r.Workload.Params
	horizonTicks := p.TestDays * p.TicksPerDay
	lookahead := r.Horizon
	if lookahead <= 0 {
		lookahead = p.ValidMax*traj.TicksPerTimeUnit + 5
	}
	service := r.ServiceTicks
	if service <= 0 {
		service = 2
	}
	predHorizon := r.PredHorizon
	if predHorizon <= 0 {
		predHorizon = 8
	}
	if predHorizon > lookahead {
		predHorizon = lookahead
	}

	var m Metrics
	// All run accounting flows through simObs so the returned Metrics and
	// the context registry (live /metrics scrapes) stay in lockstep. The
	// whole horizon records under the "sim" span.
	reg := obs.RegistryFrom(ctx)
	so := newSimObs(reg, &m)
	so.arrived(len(r.Workload.TestTasks))
	ctx, endSim := obs.Span(ctx, "sim")
	defer endSim()
	// One assignment workspace for the whole horizon: the spatial candidate
	// index and KM scratch are rebuilt in place every tick instead of
	// reallocated. Ticks run sequentially, so the single workspace is never
	// shared between concurrent assignments.
	ctx = assign.WithWorkspace(ctx, assign.NewWorkspace())
	// One forecast cache for the whole horizon: stationary workers reuse
	// their rollouts tick after tick, and daily adaptation invalidates a
	// worker's entries by version. Reuse is exact-match, so metrics are
	// unchanged with the cache on, off, or shared across runs of the same
	// model set.
	fc := r.Forecasts
	switch {
	case fc != nil:
		// Somebody else's cache, instrumented by its owner if at all: what
		// this run hit, missed and evicted is the difference of two readings.
		hits0, misses0, evictions0 := fc.Stats()
		defer reportForecastTraffic(reg, fc, hits0, misses0, evictions0)
	case !r.DisableForecastCache:
		fc = predict.NewForecastCache(0)
		fc.Instrument(reg)
	}

	var rec *recorder
	if r.EventSink != nil {
		rec = &recorder{sink: r.EventSink, nextOffer: 1}
		for i := range r.Workload.Workers {
			wk := &r.Workload.Workers[i]
			var mr float64
			if model := r.Models[wk.ID]; model != nil {
				mr = model.MR
			}
			if err := rec.emit(core.WorkerRegistered{
				WorkerID: wk.ID + 1, Detour: wk.Detour, Speed: wk.Speed, MR: mr,
			}); err != nil {
				return m, err
			}
		}
	}

	pending := make([]*pendingTask, 0, 64)
	next := 0 // next arriving task index
	busyUntil := map[int]int{}

	adaptLR := r.DailyAdaptLR
	if adaptLR <= 0 {
		adaptLR = 0.002
	}
	var deferred []deferredDecision
	// Forecasts are computed only when something reads them: the assigner's
	// plan, or the budget gate, which prices offers off Worker.Predicted.
	forecast := assign.ReadsForecast(r.Assigner) || r.Workload.Budget.Enabled
	for tick := 0; tick < horizonTicks; tick++ {
		if err := ctx.Err(); err != nil {
			return m, err
		}
		if tick > 0 {
			if err := rec.emit(core.TickAdvanced{}); err != nil {
				return m, err
			}
		}
		// Late accept/reject decisions land now, FIFO in decision order.
		deferred = applyDeferred(so, deferred, tick)
		// Continual prediction: at a day boundary, fine-tune every model on
		// the trace observed during the previous day. Each worker adapts its
		// own model on its own trace, so the pass fans out on the pool.
		if r.DailyAdaptSteps > 0 && tick > 0 && tick%p.TicksPerDay == 0 {
			prevDay := tick/p.TicksPerDay - 1
			actx, endAdapt := obs.Span(ctx, "sim.adapt")
			err := par.ForEach(actx, len(r.Workload.Workers), r.Parallelism, func(i int) error {
				wk := &r.Workload.Workers[i]
				if model := r.Models[wk.ID]; model != nil && prevDay < len(wk.TestDays) {
					model.AdaptOn(wk.TestDays[prevDay], r.DailyAdaptSteps, adaptLR)
				}
				return nil
			})
			endAdapt()
			if err != nil {
				return m, err
			}
		}
		// Task arrivals.
		for next < len(r.Workload.TestTasks) && r.Workload.TestTasks[next].Arrival <= tick {
			t := r.Workload.TestTasks[next]
			if err := rec.emit(core.TaskSubmitted{
				TaskID: t.ID + 1, X: t.Loc.X, Y: t.Loc.Y, Deadline: t.Deadline,
			}); err != nil {
				return m, err
			}
			pending = append(pending, &pendingTask{task: t})
			next++
		}
		// Drop expired tasks; collect the live pool. Held tasks (a deferred
		// decision in flight) stay pending but are kept out of this batch.
		live := pending[:0]
		var pool []*pendingTask
		for _, pt := range pending {
			if pt.done {
				continue
			}
			if pt.held {
				live = append(live, pt)
				continue
			}
			if pt.task.Deadline >= tick {
				live = append(live, pt)
				pool = append(pool, pt)
			}
		}
		pending = live
		if len(pool) == 0 {
			continue
		}

		day := tick / p.TicksPerDay
		tickInDay := tick % p.TicksPerDay

		// Build the worker views for this batch. Eligibility is a cheap
		// sequential pass; the per-worker view construction — dominated by
		// the autoregressive PredictFuture rollout — fans out on the pool,
		// each eligible worker filling its own index-addressed slot so the
		// batch order is parallelism-independent.
		var eligible []int
		for i := range r.Workload.Workers {
			wk := &r.Workload.Workers[i]
			if busyUntil[wk.ID] > tick {
				continue
			}
			if day >= len(wk.TestDays) {
				continue
			}
			// Availability windows (internal/scenario): a worker off shift
			// never enters the batch, exactly like a churned-out one, so
			// faults, recording, and budgets all compose with windowed
			// workloads for free.
			if !wk.AvailableAt(tick) {
				so.offWindowSkip()
				continue
			}
			if r.Faults.Offline(wk.ID, tick) {
				so.offline(1)
				continue
			}
			eligible = append(eligible, i)
		}
		if len(eligible) == 0 {
			continue
		}
		workers := make([]assign.Worker, len(eligible))
		// Per-worker fault counters are index-addressed and reduced
		// sequentially after the pool joins, keeping chaos metrics
		// bit-identical at every parallelism level.
		wfaults := make([]FaultStats, len(eligible))
		if err := par.ForEach(ctx, len(eligible), r.Parallelism, func(j int) error {
			wk := &r.Workload.Workers[eligible[j]]
			actualDay := wk.TestDays[day]
			cur := actualDay.At(tickInDay)
			w := assign.Worker{
				ID:     wk.ID,
				Loc:    cur,
				Detour: wk.Detour,
				Speed:  wk.Speed,
			}
			// True future path for the acceptance check and the UB oracle.
			for dt := 1; dt <= lookahead; dt++ {
				w.Actual = append(w.Actual, actualDay.At(tickInDay+dt))
			}
			// Predicted path from the trace observed so far today, when the
			// plan or the budget gate reads it. An injector is still shown
			// the window it drops and perturbs, and tallies the failures it
			// injects, whoever reads the forecast.
			if model := r.Models[wk.ID]; model != nil {
				w.MR = model.MR
				if forecast || r.Faults != nil {
					var recent []geo.Point
					if r.Faults != nil {
						recent = faultyReports(r.Faults, wk.ID, actualDay, day, p.TicksPerDay, tickInDay, model.SeqIn, &wfaults[j])
					} else {
						recent = recentPoints(actualDay, tickInDay, model.SeqIn)
					}
					switch {
					case r.Faults.PredictorFails(wk.ID, tick) || len(recent) == 0:
						wfaults[j].PredFallbacks++
					case !forecast:
						// No model call: nothing reads what it would return.
					case r.Faults == nil:
						// Plain call: a panic propagates to the par pool, which
						// converts it to a *par.PanicError that cancels the batch
						// (never the process).
						w.Predicted = fc.Forecast(model, recent, predHorizon)
					default:
						// Chaos mode: one bad model degrades only its own worker
						// to a stand-still prediction.
						if w.Predicted = core.SafeForecast(fc, model, recent, predHorizon); w.Predicted == nil {
							wfaults[j].PredFallbacks++
						}
					}
				}
			}
			if w.Predicted == nil {
				// No model, its forecast failed, or nothing will read it:
				// predict the worker stays put.
				w.Predicted = core.StandStill(cur, predHorizon)
			}
			workers[j] = w
			return nil
		}); err != nil {
			return m, err
		}
		batchFallbacks := 0
		for j := range wfaults {
			so.droppedReports(wfaults[j].DroppedReports)
			so.noisyReports(wfaults[j].NoisyReports)
			so.predFallbacks(wfaults[j].PredFallbacks)
			batchFallbacks += wfaults[j].PredFallbacks
		}
		if rec != nil {
			// The workers entering this batch report their current location,
			// so a replay rebuilds the same candidate set.
			for j := range workers {
				if err := rec.emit(core.WorkerReported{
					WorkerID: workers[j].ID + 1, X: workers[j].Loc.X, Y: workers[j].Loc.Y,
				}); err != nil {
					return m, err
				}
			}
		}

		// One batch of tasks.
		batchTasks := make([]assign.Task, len(pool))
		for i, pt := range pool {
			batchTasks[i] = pt.task
		}

		start := time.Now()
		pairs := assign.Do(ctx, r.Assigner, batchTasks, workers, tick)
		elapsed := time.Since(start)
		m.AssignTime += elapsed
		so.batches.Inc()
		so.assignSec.Observe(elapsed.Seconds())
		if err := ctx.Err(); err != nil {
			// A cancelled matching may be partial; drop it rather than
			// account a truncated plan.
			return m, err
		}
		// Budget gate: on budgeted workloads the platform issues offers in
		// descending reward-per-predicted-cost order until the tick's spend
		// allowance runs out; the rest of the plan is withheld (those tasks
		// simply stay pending). Gating before the recorder emits keeps the
		// event log an exact record of the offers actually issued.
		if r.Workload.Budget.Enabled {
			pairs = budgetGate(so, pairs, pool, workers, r.Workload.Budget.PerTickKM)
		}
		var offerIDs []int
		if rec != nil {
			ev := core.BatchAssigned{PredFallbacks: batchFallbacks}
			offerIDs = make([]int, len(pairs))
			for k, pr := range pairs {
				offerIDs[k] = rec.nextOffer
				rec.nextOffer++
				ev.Offers = append(ev.Offers, core.OfferIssued{
					OfferID:  offerIDs[k],
					TaskID:   pool[pr.Task].task.ID + 1,
					WorkerID: workers[pr.Worker].ID + 1,
				})
			}
			if err := rec.emit(ev); err != nil {
				return m, err
			}
		}

		// Workers accept or reject against their true itineraries.
		for pi, pr := range pairs {
			so.assigned()
			pt := pool[pr.Task]
			w := &workers[pr.Worker]
			costCells, ok := acceptance(w, &pt.task, tick)
			if !ok {
				// Rejected: the task stays in the pool, but the platform
				// never re-proposes a declined (task, worker) pair.
				so.rejected()
				pt.task.Excluded = append(pt.task.Excluded, w.ID)
			}
			if rec != nil {
				var dec core.Event = core.OfferAccepted{OfferID: offerIDs[pi]}
				if !ok {
					dec = core.OfferRejected{OfferID: offerIDs[pi]}
				}
				if err := rec.emit(dec); err != nil {
					return m, err
				}
			}
			if delay := r.Faults.DecisionDelay(pt.task.ID, tick); delay > 0 {
				// The worker decided (and, on accept, starts serving —
				// they are busy either way), but the platform only learns
				// the outcome `delay` ticks from now. Until then the task
				// is held out of re-matching.
				so.deferredDecision()
				pt.held = true
				if ok {
					busyUntil[w.ID] = tick + int(math.Ceil(costCells/w.Speed)) + service
				}
				deferred = append(deferred, deferredDecision{
					applyAt: tick + delay, pt: pt, workerID: w.ID,
					costCells: costCells, accepted: ok,
				})
				continue
			}
			if !ok {
				continue
			}
			so.accepted(costCells)
			pt.done = true
			busy := int(math.Ceil(costCells/w.Speed)) + service
			busyUntil[w.ID] = tick + busy
		}
	}
	// Decisions still in flight when the horizon closes are flushed so a
	// delayed accept still counts as a completion.
	applyDeferred(so, deferred, math.MaxInt)
	return m, nil
}

// budgetGate enforces the per-tick platform budget on one batch plan: each
// proposed pair is priced at its predicted out-and-back detour
// (assign.EstimatedDetourKM) and offers are issued greedily in descending
// reward-per-predicted-km order — the same reward-per-cost score the
// assigners weigh edges with — until the allowance is exhausted. Ties break
// on (task, worker) batch index, so the gate is a pure function of the plan
// and the gated plan is bit-identical at every parallelism level. Withheld
// pairs are dropped from the plan (their tasks stay in the pool; the
// workers stay free) and counted as BudgetDenied; issued pairs keep their
// original plan order.
func budgetGate(so *simObs, pairs []assign.Pair, pool []*pendingTask, workers []assign.Worker, allowanceKM float64) []assign.Pair {
	if len(pairs) == 0 {
		return pairs
	}
	type scored struct {
		idx  int
		cost float64 // predicted spend, km
		rpc  float64 // reward per predicted km
	}
	order := make([]scored, len(pairs))
	for i, pr := range pairs {
		t := &pool[pr.Task].task
		cost := assign.EstimatedDetourKM(&workers[pr.Worker], t)
		rpc := math.Inf(1) // a free offer outranks every priced one
		if cost > 0 {
			rpc = t.EffectiveReward() / cost
		}
		order[i] = scored{idx: i, cost: cost, rpc: rpc}
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := &order[a], &order[b]
		if sa.rpc != sb.rpc {
			return sa.rpc > sb.rpc
		}
		pa, pb := pairs[sa.idx], pairs[sb.idx]
		if pa.Task != pb.Task {
			return pa.Task < pb.Task
		}
		return pa.Worker < pb.Worker
	})
	remaining := allowanceKM
	issued := make([]bool, len(pairs))
	nIssued := 0
	for _, s := range order {
		// A depleted (or zero) allowance issues nothing, free offers
		// included: the platform will not open a tick it cannot pay for.
		if remaining <= 0 || s.cost > remaining {
			continue
		}
		remaining -= s.cost
		so.budgetSpend(s.cost)
		issued[s.idx] = true
		nIssued++
	}
	so.budgetDeny(len(pairs) - nIssued)
	kept := make([]assign.Pair, 0, nIssued)
	for i, pr := range pairs {
		if issued[i] {
			kept = append(kept, pr)
		}
	}
	return kept
}

// applyDeferred delivers every deferred decision due by tick, in decision
// order, and returns the still-pending remainder.
func applyDeferred(so *simObs, deferred []deferredDecision, tick int) []deferredDecision {
	rest := deferred[:0]
	for _, d := range deferred {
		if d.applyAt > tick {
			rest = append(rest, d)
			continue
		}
		d.pt.held = false
		if d.accepted {
			so.accepted(d.costCells)
			d.pt.done = true
		}
	}
	return rest
}

// recentPoints returns the up-to-n most recent true locations the platform
// has observed today (workers share their location while online).
func recentPoints(day traj.Routine, tickInDay, n int) []geo.Point {
	start := tickInDay - n + 1
	if start < 0 {
		start = 0
	}
	var out []geo.Point
	for t := start; t <= tickInDay; t++ {
		out = append(out, day.At(t))
	}
	return out
}

// faultyReports rebuilds the worker's observed trace for today under the
// injector: dropped pings vanish, noisy pings are perturbed by Gaussian GPS
// error. Fault draws key on the absolute tick so the schedule is stable
// across batches. Counters land in fs (the caller's index-addressed slot).
func faultyReports(f *fault.Injector, workerID int, day traj.Routine, dayIdx, ticksPerDay, tickInDay, n int, fs *FaultStats) []geo.Point {
	start := tickInDay - n + 1
	if start < 0 {
		start = 0
	}
	var out []geo.Point
	for t := start; t <= tickInDay; t++ {
		abs := dayIdx*ticksPerDay + t
		if f.DropReport(workerID, abs) {
			fs.DroppedReports++
			continue
		}
		pt := day.At(t)
		if dx, dy, ok := f.GPSNoise(workerID, abs); ok {
			pt.X += dx
			pt.Y += dy
			fs.NoisyReports++
		}
		out = append(out, pt)
	}
	return out
}

// acceptance decides whether the worker accepts the assigned task given
// their actual timed itinerary, delegating to the same exact feasibility
// predicate the UB oracle assigns with (assign.ServeDist). It returns the
// real detour cost d_c in cells and whether the task is accepted.
func acceptance(w *assign.Worker, t *assign.Task, tick int) (float64, bool) {
	d := assign.ServeDist(w, t, tick)
	if d < 0 {
		return 0, false
	}
	return 2 * d, true
}
