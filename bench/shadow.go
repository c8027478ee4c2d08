package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/wal"
)

// predHorizon is the platform's default forecast window, which every system
// under test here runs with.
const predHorizon = 8

// shadow separates the layers under a request handler from outside. It reads
// the log a traced round left in dir and drives the same events, in order,
// through the public functions the server composes — decode, apply, encode,
// append, fsync, and at every batch event forecast, batch assembly, index
// build and matching — with a span around each call. The state it builds is
// the round's own, so every call sees exactly the input the live call saw.
// syncEvery is the live log's fsync cadence; scratch receives the shadow log.
func (t *tracer) shadow(ctx context.Context, dir string, models map[int]*predict.WorkerModel, syncEvery int, scratch string) error {
	end := t.span("wal.readlog")
	rec, err := wal.ReadLog(dir)
	end()
	if err != nil {
		return fmt.Errorf("shadow: %w", err)
	}
	reg := obs.NewRegistry()
	log, _, err := wal.Open(scratch, wal.Options{SyncEvery: math.MaxInt32, Registry: reg})
	if err != nil {
		return fmt.Errorf("shadow: %w", err)
	}
	defer log.Close()
	ctx = obs.WithRegistry(ctx, reg)
	ctx = assign.WithWorkspace(ctx, assign.NewWorkspace())
	kmCtx := assign.WithWorkspace(ctx, assign.NewWorkspace())
	fc := predict.NewForecastCache(0)
	st := core.NewState()
	if rec.Snapshot != nil {
		if st, err = core.DecodeSnapshot(rec.Snapshot); err != nil {
			return fmt.Errorf("shadow: %w", err)
		}
	}
	var index geo.GridIndex
	var bytes int
	for i, p := range rec.Records {
		end := t.span("core.decode")
		ev, err := core.DecodeEvent(p)
		end()
		if err != nil {
			return fmt.Errorf("shadow: record %d: %w", i, err)
		}
		switch ev.(type) {
		case core.BatchAssigned, core.DegradedBatch:
			if err := t.shadowBatch(ctx, kmCtx, st, models, fc, &index); err != nil {
				return err
			}
		}
		commit := time.Now()
		end = t.span("core.apply")
		err = st.Apply(ev)
		end()
		if err != nil {
			return fmt.Errorf("shadow: record %d: %w", i, err)
		}
		end = t.span("core.encode")
		b, err := core.EncodeEvent(ev)
		end()
		if err != nil {
			return fmt.Errorf("shadow: record %d: %w", i, err)
		}
		end = t.span("wal.append")
		_, err = log.Append(b)
		end()
		if err != nil {
			return fmt.Errorf("shadow: %w", err)
		}
		bytes += len(b) + 8 // frame header: length and checksum
		if (i+1)%syncEvery == 0 {
			end = t.span("wal.fsync")
			err = log.Sync()
			end()
			if err != nil {
				return fmt.Errorf("shadow: %w", err)
			}
		}
		// What the server's commit path does for one event, as one number:
		// a write handler's span minus this is the server layer's own time.
		t.sample("core.commit", float64(time.Since(commit).Nanoseconds())/1e3)
	}
	end = t.span("core.snapshot")
	snap := st.EncodeSnapshot()
	end()
	t.count("core.events", float64(len(rec.Records)))
	t.count("core.snapshots", 1)
	t.count("core.snapshot_bytes", float64(len(snap)))
	t.count("wal.bytes", float64(bytes))
	for _, stage := range []string{"confident", "pending", "fallback"} {
		t.count("assign.edges", float64(reg.Counter("tamp_assign_edges_total", obs.L("alg", "PPI"), obs.L("stage", stage)).Value()))
	}
	return nil
}

// shadowBatch re-runs what the server does between deciding to batch and
// committing the plan, on the state just before the recorded batch event.
// Every eligible worker is forecast first, through the cache, so that the
// BuildBatch span that follows is batch assembly alone.
func (t *tracer) shadowBatch(ctx, kmCtx context.Context, st *core.State, models map[int]*predict.WorkerModel, fc *predict.ForecastCache, index *geo.GridIndex) error {
	ids := make([]int, 0, len(st.Workers))
	for id, w := range st.Workers {
		if w.Online && w.OfferID == 0 && len(w.Trace) > 0 && models[id] != nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		end := t.span("predict.forecast")
		core.SafeForecast(fc, models[id], st.Workers[id].Trace, predHorizon)
		end()
	}
	end := t.span("core.buildbatch")
	in, err := core.BuildBatch(ctx, st, models, fc, predHorizon, 0)
	end()
	if err != nil {
		return fmt.Errorf("shadow: build batch: %w", err)
	}
	t.count("core.batches", 1)
	if len(in.TaskIDs) == 0 {
		return nil
	}
	// The candidate index the assigners build per batch: each worker's
	// predicted path, padded by its reach radius of half the detour budget.
	end = t.span("geo.index")
	err = index.Build(ctx, len(in.Workers), 0, func(i int) (geo.BBox, bool) {
		w := &in.Workers[i]
		if len(w.Predicted) == 0 {
			return geo.BBox{}, false
		}
		b := geo.BBox{Min: w.Predicted[0], Max: w.Predicted[0]}
		for _, p := range w.Predicted[1:] {
			b.Min.X, b.Min.Y = math.Min(b.Min.X, p.X), math.Min(b.Min.Y, p.Y)
			b.Max.X, b.Max.Y = math.Max(b.Max.X, p.X), math.Max(b.Max.Y, p.Y)
		}
		r := math.Max(w.Detour/2, 0)
		b.Min.X, b.Min.Y, b.Max.X, b.Max.Y = b.Min.X-r, b.Min.Y-r, b.Max.X+r, b.Max.Y+r
		return b, true
	})
	end()
	if err != nil {
		return fmt.Errorf("shadow: index: %w", err)
	}
	for i := range in.Tasks {
		t.count("geo.candidates", float64(len(index.Candidates(in.Tasks[i].Loc))+len(index.Overflow())))
	}
	t.count("geo.tasks", float64(len(in.Tasks)))

	end = t.span("assign.ppi")
	pairs := assign.Do(ctx, assign.PPI{A: predict.DefaultMatchRadius}, in.Tasks, in.Workers, st.Tick)
	end()
	t.count("assign.pairs", float64(len(pairs)))
	t.count("assign.batches", 1)
	end = t.span("assign.km")
	assign.Do(kmCtx, assign.KM{}, in.Tasks, in.Workers, st.Tick)
	end()
	return nil
}
