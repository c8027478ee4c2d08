// Package replay is the offline bridge between a recorded platform event
// log and the assignment algorithms: it feeds a write-ahead log produced by
// a live server (internal/server with -wal-dir) or a recording simulation
// (platform.Run.EventSink) back through any assigner, without HTTP, clocks,
// or goroutines.
//
// The replayed state always follows the live run — each recorded event is
// applied exactly as logged — while at every batch event the bridge first
// rebuilds the batch input the live platform saw (core.BuildBatch over the
// state the moment before the batch applied) and runs the chosen assigner
// on it. The result is a per-batch counterfactual plan that can be compared
// pair-for-pair against the plan the live run committed: "what would KM
// have offered where PPI ran?". Because core.State transitions and the
// assigners are deterministic, replaying the same log with the same options
// yields bit-identical reports.
package replay

import (
	"context"
	"fmt"
	"time"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/wal"
)

// Options configures one replay pass.
type Options struct {
	// Assigner produces the counterfactual plan at each batch event.
	Assigner assign.Assigner
	// Models are the per-worker mobility predictors available to the
	// counterfactual batches; nil degrades every worker to a stand-still
	// forecast, exactly as the live platform would.
	Models map[int]*predict.WorkerModel
	// PredHorizon is the forecast window per worker per batch (default 8,
	// the live platform's default).
	PredHorizon int
	// Parallelism bounds the pool used for per-batch rollout construction
	// (0 = GOMAXPROCS). Plans are bit-identical at every level.
	Parallelism int
	// Registry receives the tamp_replay_duration_seconds gauge and supplies
	// the clock that measures it (nil = obs.Default).
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.PredHorizon <= 0 {
		o.PredHorizon = 8
	}
	if o.Registry == nil {
		o.Registry = obs.Default
	}
	return o
}

// BatchPlan compares one live batch against the replay assigner's plan over
// the identical input.
type BatchPlan struct {
	// Seq is the event's sequence number (state Applied count after it).
	Seq uint64
	// Tick is the platform tick the batch ran at.
	Tick int
	// Degraded reports that the live batch fell back to the greedy assigner.
	Degraded bool
	// Live is the plan the recorded run committed; Replay is the plan the
	// replay assigner produced from the same batch input. Replay offer IDs
	// are allocated from the same counter the live run would have used.
	Live, Replay []core.OfferIssued
	// Agreed counts (task, worker) pairs present in both plans.
	Agreed int
}

// Report aggregates one replay pass.
type Report struct {
	// Assigner is the replay assigner's name.
	Assigner string
	// StartSeq is the sequence the replay started from (0 = genesis; a log
	// whose oldest segments were reclaimed starts at its snapshot).
	StartSeq uint64
	// Events is how many recorded events were applied.
	Events int
	// Batches holds one entry per batch event, in log order.
	Batches []BatchPlan
	// LivePairs, ReplayPairs, and AgreedPairs sum the per-batch plans.
	LivePairs, ReplayPairs, AgreedPairs int
	// Torn is the WAL tail corruption ReadLog stopped at, if any; the
	// report covers the longest valid prefix.
	Torn *wal.CorruptionError
	// Duration is the wall-clock cost of the pass (registry clock).
	Duration time.Duration
	// Final is the replayed state after the last event — bit-identical to
	// the live run's state at the same sequence.
	Final *core.State
}

// AgreementRate is AgreedPairs / LivePairs (1 when the live run made no
// offers: an empty plan is trivially agreed with).
func (r *Report) AgreementRate() float64 {
	if r.LivePairs == 0 {
		return 1
	}
	return float64(r.AgreedPairs) / float64(r.LivePairs)
}

// Run reads the event log recorded in dir (preferring full history from
// genesis when the segments allow it) and replays it through opts.Assigner.
func Run(ctx context.Context, dir string, opts Options) (*Report, error) {
	rec, err := wal.ReadLog(dir)
	if err != nil {
		return nil, err
	}
	st := core.NewState()
	if rec.Snapshot != nil {
		if st, err = core.DecodeSnapshot(rec.Snapshot); err != nil {
			return nil, err
		}
	}
	events := make([]core.Event, len(rec.Records))
	for i, b := range rec.Records {
		if events[i], err = core.DecodeEvent(b); err != nil {
			return nil, fmt.Errorf("replay: record %d (seq %d): %w", i, rec.StartSeq+uint64(i), err)
		}
	}
	rep, err := Events(ctx, st, events, opts)
	if err != nil {
		return nil, err
	}
	rep.StartSeq = rec.StartSeq
	rep.Torn = rec.Torn
	return rep, nil
}

// Events replays a decoded event sequence onto st (which it mutates) through
// opts.Assigner. This is Run for callers that already hold the events — a
// recording simulation, or a test comparing plans across assigners.
func Events(ctx context.Context, st *core.State, events []core.Event, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if opts.Assigner == nil {
		return nil, fmt.Errorf("replay: no assigner")
	}
	rep := &Report{Assigner: opts.Assigner.Name(), Final: st}
	// One workspace for the whole pass: batches run sequentially, so the
	// spatial index and matcher scratch are rebuilt in place each batch.
	ctx = assign.WithWorkspace(ctx, assign.NewWorkspace())
	// One forecast memo for the whole pass, mirroring the live server's
	// long-lived cache: counterfactual batches replay the same windows the
	// live run saw, so stationary stretches reuse their rollouts.
	fc := predict.NewForecastCache(0)
	fc.Instrument(opts.Registry)
	start := opts.Registry.Now()
	for i, ev := range events {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if live, degraded, isBatch := batchOffers(ev); isBatch {
			plan, err := counterfactual(ctx, st, fc, opts)
			if err != nil {
				return nil, err
			}
			bp := BatchPlan{
				Seq: st.Applied + 1, Tick: st.Tick, Degraded: degraded,
				Live: live, Replay: plan,
				Agreed: agreement(live, plan),
			}
			rep.Batches = append(rep.Batches, bp)
			rep.LivePairs += len(live)
			rep.ReplayPairs += len(plan)
			rep.AgreedPairs += bp.Agreed
		}
		if err := st.Apply(ev); err != nil {
			return nil, fmt.Errorf("replay: event %d: %w", i, err)
		}
		rep.Events++
	}
	rep.Duration = opts.Registry.Now().Sub(start)
	opts.Registry.Gauge("tamp_replay_duration_seconds",
		obs.L("assigner", rep.Assigner)).Set(rep.Duration.Seconds())
	return rep, nil
}

// batchOffers extracts the live plan from a batch event, reporting whether
// ev is one.
func batchOffers(ev core.Event) (live []core.OfferIssued, degraded, isBatch bool) {
	switch e := ev.(type) {
	case core.BatchAssigned:
		return e.Offers, false, true
	case core.DegradedBatch:
		return e.Offers, true, true
	}
	return nil, false, false
}

// counterfactual rebuilds the batch input from the pre-batch state and runs
// the replay assigner on it, allocating offer IDs from the same counter the
// live run would have used.
func counterfactual(ctx context.Context, st *core.State, fc *predict.ForecastCache, opts Options) ([]core.OfferIssued, error) {
	// As on the live server: no rollouts for an assigner that reads none.
	models := opts.Models
	if !assign.ReadsForecast(opts.Assigner) {
		models = nil
	}
	in, err := core.BuildBatch(ctx, st, models, fc, opts.PredHorizon, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	if len(in.TaskIDs) == 0 {
		return nil, nil
	}
	pairs := assign.Do(ctx, opts.Assigner, in.Tasks, in.Workers, st.Tick)
	if err := ctx.Err(); err != nil {
		// A cancelled matching may be partial; abandon rather than report a
		// truncated plan.
		return nil, err
	}
	plan := make([]core.OfferIssued, len(pairs))
	for k, pr := range pairs {
		plan[k] = core.OfferIssued{
			OfferID:  st.NextOffer + k,
			TaskID:   in.TaskIDs[pr.Task],
			WorkerID: in.Workers[pr.Worker].ID,
		}
	}
	return plan, nil
}

// agreement counts (task, worker) pairs common to both plans.
func agreement(live, replay []core.OfferIssued) int {
	if len(live) == 0 || len(replay) == 0 {
		return 0
	}
	type pair struct{ t, w int }
	set := make(map[pair]bool, len(live))
	for _, o := range live {
		set[pair{o.TaskID, o.WorkerID}] = true
	}
	n := 0
	for _, o := range replay {
		if set[pair{o.TaskID, o.WorkerID}] {
			n++
		}
	}
	return n
}
