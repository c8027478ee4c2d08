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
	"slices"
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

// accept counts one accepted assignment and the detour its worker travels.
func (m *Metrics) accept(costCells float64) {
	m.Accepted++
	m.SumCostKM += geo.CellsToKM(costCells)
}

// AvgCostKM is the mean detour workers travelled per accepted task, in km.
func (m Metrics) AvgCostKM() float64 {
	if m.Accepted == 0 {
		return 0
	}
	return m.SumCostKM / float64(m.Accepted)
}

// Run configures one simulation. Its platform side — the task pool, offers,
// decisions and expiry, and the tallies of offers, rejects, batches and
// forecast fallbacks — is a core.State the run owns and applies each of its
// events to; the world side — true paths, availability, faults and
// acceptance — is the workload's, and Metrics counts what it sees.
type Run struct {
	Workload *dataset.Workload
	// Models holds each worker's mobility predictor (nil entries degrade
	// that worker to a standing-still prediction). UB and LB ignore them.
	Models   map[int]*predict.WorkerModel
	Assigner assign.Assigner
	// DailyAdaptSteps, when positive, turns on continual prediction: at
	// every day boundary each worker's model takes this many SGD steps on
	// the trajectory the platform observed the previous day, at learning
	// rate dailyAdaptLR.
	DailyAdaptSteps int
	// Parallelism bounds the pool core.PlanBatch rolls each batch's
	// forecasts out on (the autoregressive PredictFuture rollouts dominate
	// each tick) and the daily continual-adaptation pass (0 = GOMAXPROCS).
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
	// are bit-identical at every parallelism level too. With or without an
	// injector, a predictor that panics or returns a non-finite point
	// degrades only its own worker to a stand-still forecast for that batch
	// (core.PlanBatch's guard) and counts in Metrics.Faults.PredFallbacks.
	Faults *fault.Injector
	// EventSink, when non-nil, receives each event the run applies to its
	// core.State, right after it applies — the events a WAL-backed server
	// records: worker registrations up front, then per tick the clock
	// advance, task arrivals, location reports for the workers entering the
	// batch, the batch plan, and each accept/reject decision. A log recorded
	// this way replays through internal/replay exactly like a live server's.
	// The state names workers and tasks by workload ID +1 (core requires
	// positive IDs), and a decision applies when the worker decides, even if
	// the fault injector delivers it late. A sink error aborts the run.
	EventSink func(core.Event) error
	// Forecasts is the memo the run looks each PredictFuture rollout up in
	// — exact window-keyed, so memoized runs are bit-identical to uncached
	// ones. It must be a cache of Models: the one predict.Train put on the
	// Result the models came from (Result.Forecasts), which every run over
	// that Result shares — the second assigner, sweep point or chaos pass
	// rolls out only the windows the first did not see — or any longer-lived
	// cache of the caller's. The run reports its own share of the cache's
	// traffic to the context registry. Nil recomputes every rollout: the
	// uncached reference the memo is checked against.
	Forecasts *predict.ForecastCache
}

// dailyAdaptLR is the learning rate of the continual updates.
const dailyAdaptLR = 0.002

// serviceTicks is the fixed handling time added to a worker's busy window
// after accepting a task.
const serviceTicks = 2

// deferredDecision is an accept/reject outcome computed at assignment time
// but delivered late by the fault injector.
type deferredDecision struct {
	applyAt   int // tick at which the decision reaches the platform
	taskID    int // platform ID
	costCells float64
	accepted  bool
}

// apply applies ev to st, then hands it to sink, if any: the sink receives
// exactly the stream the run applied. Generic, so that with no sink ev's
// conversion to core.Event stays on the stack (State.Apply keeps nothing).
func apply[E core.Event](st *core.State, sink func(core.Event) error, ev E) error {
	if err := st.Apply(ev); err != nil || sink == nil {
		return err
	}
	return sink(ev)
}

// Simulate runs the full test horizon and returns the aggregated metrics.
// Cancelling ctx stops the simulation at the next tick boundary (or between
// a batch's prediction and matching phases) and returns the partial metrics
// alongside ctx.Err(). The tamp_sim_* series of the context registry gain
// the returned metrics when Simulate returns, on every path.
func (r *Run) Simulate(ctx context.Context) (m Metrics, err error) {
	p := r.Workload.Params
	horizonTicks := p.TestDays * p.TicksPerDay
	// The acceptance check and the UB oracle see this many future ticks of
	// true trajectory: enough for the longest-lived task.
	lookahead := p.ValidMax*traj.TicksPerTimeUnit + 5

	m.TotalTasks = len(r.Workload.TestTasks)
	// The platform's tasks, workers and offers live in st, by workload ID
	// +1; the fault injector and the workload arrays keep workload IDs. What
	// the platform did — offers, rejects, batches, forecast fallbacks — st
	// counts; m counts what the world side saw. Both land in the returned
	// Metrics and the context registry once, however the run ends. The whole
	// horizon records under the "sim" span.
	st, sink := core.NewState(), r.EventSink
	reg := obs.RegistryFrom(ctx)
	defer func() {
		m.Assigned = int(st.Counts.Offers)
		m.Faults.PredFallbacks = int(st.Counts.PredFallbacks)
		writeSimSeries(reg, &m, st.Counts)
	}()
	assignSec := reg.Histogram("tamp_assign_seconds", obs.DefSecondsBuckets)
	ctx, endSim := obs.Span(ctx, "sim")
	defer endSim()
	// One assignment workspace for the whole horizon: the spatial candidate
	// index and KM scratch are rebuilt in place every tick instead of
	// reallocated. Ticks run sequentially, so the single workspace is never
	// shared between concurrent assignments.
	ctx = assign.WithWorkspace(ctx, assign.NewWorkspace())
	// The forecast memo is the caller's, instrumented by its owner if at
	// all: what this run hit, missed and evicted is the difference of two
	// readings.
	fc := r.Forecasts
	if fc != nil {
		hits0, misses0, evictions0 := fc.Stats()
		defer reportForecastTraffic(reg, fc, hits0, misses0, evictions0)
	}

	models := make(map[int]*predict.WorkerModel, len(r.Models))
	seqIn := 0 // the longest window any worker's model reads
	for i := range r.Workload.Workers {
		wk := &r.Workload.Workers[i]
		var mr float64
		if model := r.Models[wk.ID]; model != nil {
			mr = model.MR
			models[wk.ID+1] = model
			seqIn = max(seqIn, model.SeqIn)
		}
		if err := apply(st, sink, core.WorkerRegistered{
			WorkerID: wk.ID + 1, Detour: wk.Detour, Speed: wk.Speed, MR: mr,
		}); err != nil {
			return m, err
		}
	}

	next := 0                                         // next arriving task index
	busyUntil := make([]int, len(r.Workload.Workers)) // by worker index
	var deferred []deferredDecision
	// Forecasts are computed only when something reads them: the assigner's
	// plan, or the budget gate, which prices offers off Worker.Predicted.
	forecast := assign.ReadsForecast(r.Assigner) || r.Workload.Budget.Enabled
	// The batch input and the backing arrays of the eligible workers' true
	// future paths and observed windows serve tick after tick. Nothing keeps
	// them past the batch: the forecast cache and the rollout copy the
	// window, and only this batch's plan and acceptance checks read the rest.
	var in core.BatchInput
	var eligible []int
	var actual, observed []geo.Point
	for tick := 0; tick < horizonTicks; tick++ {
		if err := ctx.Err(); err != nil {
			return m, err
		}
		if tick > 0 {
			if err := apply(st, sink, core.TickAdvanced{}); err != nil {
				return m, err
			}
		}
		// Late accept/reject decisions land now, FIFO in decision order.
		deferred = applyDeferred(&m, deferred, tick)
		// Continual prediction: at a day boundary, fine-tune every model on
		// the trace observed during the previous day. Each worker adapts its
		// own model on its own trace, so the pass fans out on the pool.
		if r.DailyAdaptSteps > 0 && tick > 0 && tick%p.TicksPerDay == 0 {
			prevDay := tick/p.TicksPerDay - 1
			actx, endAdapt := obs.Span(ctx, "sim.adapt")
			err := par.ForEach(actx, len(r.Workload.Workers), r.Parallelism, func(i int) error {
				wk := &r.Workload.Workers[i]
				if model := r.Models[wk.ID]; model != nil && prevDay < len(wk.TestDays) {
					model.AdaptOn(wk.TestDays[prevDay], r.DailyAdaptSteps, dailyAdaptLR)
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
			next++
			if t.Deadline < tick {
				// Expired before it arrived: counted in TotalTasks, but
				// never submitted (core would refuse it).
				continue
			}
			if err := apply(st, sink, core.TaskSubmitted{
				TaskID: t.ID + 1, X: t.Loc.X, Y: t.Loc.Y, Deadline: t.Deadline, Reward: t.Reward,
			}); err != nil {
				return m, err
			}
		}
		// The batch offers the open tasks but those whose decision is
		// still in flight.
		in.SelectTasks(st)
		if len(deferred) > 0 {
			delayed := func(id int) bool {
				return slices.ContainsFunc(deferred, func(d deferredDecision) bool { return d.taskID == id })
			}
			in.Tasks = slices.DeleteFunc(in.Tasks, func(t assign.Task) bool { return delayed(t.ID) })
			in.TaskIDs = slices.DeleteFunc(in.TaskIDs, delayed)
		}
		if len(in.Tasks) == 0 {
			continue
		}

		day := tick / p.TicksPerDay
		tickInDay := tick % p.TicksPerDay

		// The batch's workers, world side: eligibility, each eligible
		// worker's true future path (for the acceptance check and the UB
		// oracle) and the window of reports the platform observed today.
		// core.PlanBatch forecasts from the windows and plans.
		eligible = eligible[:0]
		for i := range r.Workload.Workers {
			wk := &r.Workload.Workers[i]
			if busyUntil[i] > tick || day >= len(wk.TestDays) {
				continue
			}
			// Availability windows (internal/scenario): a worker off shift
			// never enters the batch, exactly like a churned-out one, so
			// faults, recording, and budgets all compose with windowed
			// workloads for free.
			if !wk.AvailableAt(tick) {
				m.OffWindow++
				continue
			}
			if r.Faults.Offline(wk.ID, tick) {
				m.Faults.OfflineTicks++
				continue
			}
			eligible = append(eligible, i)
		}
		if len(eligible) == 0 {
			continue
		}
		in.Workers = slices.Grow(in.Workers[:0], len(eligible))[:len(eligible)]
		in.Windows = slices.Grow(in.Windows[:0], len(eligible))[:len(eligible)]
		clear(in.Windows)
		actual = slices.Grow(actual[:0], len(eligible)*lookahead)
		if forecast || r.Faults != nil {
			observed = slices.Grow(observed[:0], len(eligible)*seqIn)
		}
		worldFallbacks := 0 // workers the world side left without a window
		for j, i := range eligible {
			wk := &r.Workload.Workers[i]
			actualDay := wk.TestDays[day]
			w := &in.Workers[j]
			*w = assign.Worker{
				ID:     wk.ID + 1,
				Loc:    actualDay.At(tickInDay),
				Detour: wk.Detour,
				Speed:  wk.Speed,
				Actual: actual[j*lookahead : (j+1)*lookahead : (j+1)*lookahead],
			}
			for dt := range w.Actual {
				w.Actual[dt] = actualDay.At(tickInDay + 1 + dt)
			}
			model := r.Models[wk.ID]
			if model == nil {
				continue
			}
			w.MR = model.MR
			// The window is built when the plan or the budget gate reads the
			// forecast. An injector is still shown the window it drops and
			// perturbs, and tallies the failures it injects, whoever reads
			// the forecast.
			if !forecast && r.Faults == nil {
				continue
			}
			recent := faultyReports(observed[j*seqIn:j*seqIn:j*seqIn+model.SeqIn], r.Faults, wk.ID, actualDay, day, p.TicksPerDay, tickInDay, model.SeqIn, &m.Faults)
			if r.Faults.PredictorFails(wk.ID, tick) || len(recent) == 0 {
				// No window: the worker stands still.
				worldFallbacks++
				continue
			}
			in.Windows[j] = recent
		}
		// The workers entering this batch report their current location,
		// so a replay rebuilds the same candidate set.
		for j := range in.Workers {
			w := &in.Workers[j]
			if err := apply(st, sink, core.WorkerReported{WorkerID: w.ID, X: w.Loc.X, Y: w.Loc.Y}); err != nil {
				return m, err
			}
		}

		var pairs []assign.Pair
		offers, fallbacks, err := core.PlanBatch(ctx, in, forecast, models, fc, r.Parallelism, st.NextOffer,
			func(tasks []assign.Task, workers []assign.Worker) []assign.Pair {
				start := time.Now()
				pairs = assign.Do(ctx, r.Assigner, tasks, workers, tick)
				elapsed := time.Since(start)
				m.AssignTime += elapsed
				assignSec.Observe(elapsed.Seconds())
				// Budget gate: on budgeted workloads the platform issues
				// offers in descending reward-per-predicted-cost order until
				// the tick's spend allowance runs out; the rest of the plan is
				// withheld (those tasks simply stay pending). A cancelled
				// matching may be partial, and PlanBatch drops it.
				if r.Workload.Budget.Enabled && ctx.Err() == nil {
					pairs = budgetGate(&m, pairs, tasks, workers, r.Workload.Budget.PerTickKM)
				}
				return pairs
			})
		if err != nil {
			return m, err
		}
		if err := apply(st, sink, core.BatchAssigned{Offers: offers, PredFallbacks: fallbacks + worldFallbacks}); err != nil {
			return m, err
		}

		// Workers accept or reject against their true itineraries. A
		// rejected task returns to the pool, and core never re-proposes the
		// declined (task, worker) pair.
		for k, pr := range pairs {
			t := &in.Tasks[pr.Task]
			w := &in.Workers[pr.Worker]
			costCells, ok := acceptance(w, t, tick)
			if ok {
				// The worker starts serving, however late the platform
				// learns of it.
				busyUntil[eligible[pr.Worker]] = tick + int(math.Ceil(costCells/w.Speed)) + serviceTicks
				err = apply(st, sink, core.OfferAccepted{OfferID: offers[k].OfferID})
			} else {
				err = apply(st, sink, core.OfferRejected{OfferID: offers[k].OfferID})
			}
			if err != nil {
				return m, err
			}
			if delay := r.Faults.DecisionDelay(t.ID-1, tick); delay > 0 {
				// The platform learns the outcome `delay` ticks from now;
				// until then the task is held out of re-matching.
				m.Faults.DeferredDecisions++
				deferred = append(deferred, deferredDecision{applyAt: tick + delay, taskID: t.ID, costCells: costCells, accepted: ok})
			} else if ok {
				m.accept(costCells)
			}
		}
	}
	// Decisions still in flight when the horizon closes are flushed so a
	// delayed accept still counts as a completion.
	applyDeferred(&m, deferred, math.MaxInt)
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
func budgetGate(m *Metrics, pairs []assign.Pair, tasks []assign.Task, workers []assign.Worker, allowanceKM float64) []assign.Pair {
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
		t := &tasks[pr.Task]
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
		m.BudgetSpentKM += s.cost
		issued[s.idx] = true
		nIssued++
	}
	m.BudgetDenied += len(pairs) - nIssued
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
func applyDeferred(m *Metrics, deferred []deferredDecision, tick int) []deferredDecision {
	rest := deferred[:0]
	for _, d := range deferred {
		if d.applyAt > tick {
			rest = append(rest, d)
			continue
		}
		if d.accepted {
			m.accept(d.costCells)
		}
	}
	return rest
}

// faultyReports appends to dst the up-to-n most recent locations the
// platform observed from the worker today (workers share their location
// while online), under the injector, which may be nil: dropped pings
// vanish, noisy pings are perturbed by Gaussian GPS error. Fault draws key
// on the absolute tick so the schedule is stable across batches; both
// tallies land in fs.
func faultyReports(dst []geo.Point, f *fault.Injector, workerID int, day traj.Routine, dayIdx, ticksPerDay, tickInDay, n int, fs *FaultStats) []geo.Point {
	for t := max(tickInDay-n+1, 0); t <= tickInDay; t++ {
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
		dst = append(dst, pt)
	}
	return dst
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
