package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/spatialcrowd/tamp"
	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/platform"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/replay"
)

// recorderSyncEvery is the fsync cadence tamp.SimulateRecorded opens its log
// with; the shadow pipeline re-appends at the same cadence.
const recorderSyncEvery = 256

// simulateWorkload is "a simulator tick": platform.Run.Simulate over the
// whole two-day horizon with pretrained models, once recorded and replayed,
// then under two more assigners and under fault injection — every consumer
// of the batch step, with the forecast cache on its miss path.
type simulateWorkload struct {
	tmp     string
	seed    int64
	wd      *world
	shifted map[int]*predict.WorkerModel // recorded logs number workers from 1
	n       int
}

func (s *simulateWorkload) setup(ctx context.Context, seed int64) error {
	wd, err := buildWorld(ctx, seed)
	if err != nil {
		return err
	}
	s.seed, s.wd = seed, wd
	s.shifted = map[int]*predict.WorkerModel{}
	for id, m := range wd.pred.Models {
		s.shifted[id+1] = m
	}
	return nil
}

func simQuality(m platform.Metrics) quality {
	return quality{Submitted: m.TotalTasks, Offers: m.Assigned, Accepted: m.Accepted, DetourKM: m.SumCostKM}
}

// timedOp runs one client-visible op of a simulation round under a span.
func timedOp(m *meter, tr *tracer, name string, fn func() error) {
	m.attempted++
	end := tr.span(name)
	start := time.Now()
	err := fn()
	m.op(time.Since(start))
	end()
	if err != nil {
		m.fail("%s: %v", name, err)
	}
}

// lapOp is timedOp as a lap of its own: each op of a simulation round runs
// for a good fraction of a second.
func lapOp(m *meter, tr *tracer, name string, fn func() error) {
	timedOp(m, tr, name, fn)
	m.lap()
}

func (s *simulateWorkload) round(ctx context.Context, m *meter, tr *tracer) error {
	s.n++
	dir := filepath.Join(s.tmp, fmt.Sprintf("simulate-%d", s.n))
	defer os.RemoveAll(dir)
	w, pred := s.wd.w, s.wd.pred
	ticks := w.Params.TestDays * w.Params.TicksPerDay
	reg := obs.NewRegistry()
	ctx = obs.WithRegistry(ctx, reg)
	// The recorder's log reports to the process-wide registry.
	fsyncs := obs.Default.Histogram("tamp_wal_fsync_seconds", obs.DefSecondsBuckets)
	f0 := fsyncs.Count()
	var ppi platform.Metrics
	var rep *replay.Report
	var assignTime time.Duration
	failed0 := m.failed

	m.begin()
	tr.start()
	lapOp(m, tr, "platform.simulate", func() (err error) {
		ppi, err = tamp.SimulateRecorded(ctx, w, pred, tamp.NewPPI(), dir)
		assignTime += ppi.AssignTime
		return err
	})
	lapOp(m, tr, "replay.run", func() (err error) {
		rep, err = replay.Run(ctx, dir, replay.Options{Assigner: tamp.NewPPI(), Models: s.shifted, Registry: reg})
		return err
	})
	for _, a := range []tamp.Assigner{tamp.NewKM(), tamp.NewLB()} {
		lapOp(m, tr, "platform.simulate", func() error {
			sm, err := tamp.Simulate(ctx, w, pred, a)
			assignTime += sm.AssignTime
			return err
		})
	}
	timedOp(m, tr, "platform.simulate", func() error {
		sm, err := tamp.SimulateChaos(ctx, w, pred, tamp.NewPPI(), tamp.FaultConfig{
			Seed: s.seed, WorkerChurn: 0.20, DropReport: 0.10, GPSNoise: 0.10, GPSNoiseCells: 1,
			PredictorFail: 0.05, DecisionDelay: 0.20, DecisionDelayTicks: 3,
		})
		assignTime += sm.AssignTime
		return err
	})
	q := simQuality(ppi)
	q.Fsyncs = fsyncs.Count() - f0
	if rep != nil {
		q.Replayed = rep.AgreedPairs
	}
	m.end(4*ticks, q)
	if m.failed > failed0 {
		return nil // the failed op is already on the books
	}

	// The replayed state must have followed the recorded run to the same
	// tallies. (Plan agreement is not 1 here and need not be: the replay
	// rebuilds each batch from the reports in the log, the simulator from
	// the true traces. The serve workload checks agreement == 1 on a log
	// the server wrote.)
	m.attempted++
	if c := rep.Final.Counts; rep.LivePairs != ppi.Assigned || int(c.Offers) != ppi.Assigned || int(c.Accepts) != ppi.Accepted {
		m.fail("replay saw %d offers and ended at %d offers, %d accepts; the simulation made %d and %d",
			rep.LivePairs, c.Offers, c.Accepts, ppi.Assigned, ppi.Accepted)
	}
	if !tr.active() {
		return nil
	}
	tr.trained(pred)
	tr.sample("replay.agreement", rep.AgreementRate())
	tr.sample("platform.assign_share", ratio(assignTime.Seconds(), m.rounds[len(m.rounds)-1].wallS()))
	tr.count("predict.cache_hits", float64(reg.Counter("predict_cache_hits").Value()))
	tr.count("predict.cache_misses", float64(reg.Counter("predict_cache_misses").Value()))
	if err := s.tickGaps(ctx, tr); err != nil {
		return err
	}
	return tr.shadow(ctx, dir, s.shifted, recorderSyncEvery, filepath.Join(dir, "shadow"))
}

// tickGaps runs the PPI simulation once more, outside the measured section,
// with an event sink that only notes when each clock event passes: the gaps
// between them are the simulator's ticks.
func (s *simulateWorkload) tickGaps(ctx context.Context, tr *tracer) error {
	var last time.Time
	run := platform.Run{Workload: s.wd.w, Models: s.wd.pred.Models, Assigner: tamp.NewPPI()}
	run.EventSink = func(ev core.Event) error {
		if _, ok := ev.(core.TickAdvanced); ok {
			now := time.Now()
			if !last.IsZero() {
				tr.sample("platform.tick", float64(now.Sub(last).Nanoseconds())/1e3)
			}
			last = now
		}
		return nil
	}
	_, err := run.Simulate(ctx)
	return err
}
