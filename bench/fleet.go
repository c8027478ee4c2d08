package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"

	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/server"
)

// The fleet workload's shape. One worker in a hundred moves and reports
// every tick; the rest parked after their first report, so their context
// windows never change and their forecasts are cache hits. Before every
// batch the driver tops the open-task pool up to fleetPool, so each batch
// sees 4 000–6 000 open tasks against the 5 000 workers whatever share of
// them the seed's geometry lets the workers serve: the regime where
// from-scratch matching, index build and batch assembly dominate a tick.
const (
	fleetWorkers   = 5000
	fleetMoverStep = 100  // every hundredth worker moves
	fleetPreroll   = 3    // untimed ticks that fill the forecast cache
	fleetTicks     = 14   // measured ticks
	fleetPool      = 5000 // open tasks every batch starts from
	fleetValidMin  = 8    // validity of a task, in ticks
	fleetValidMax  = 16
	fleetPoolMin   = 4000
	fleetPoolMax   = 6000
	// With a worker per grid cell, the paper's 6 km detour budget would make
	// every task a candidate of hundreds of workers; the fleet's workers
	// take short detours only, which keeps the matching graph sparse.
	fleetDetourKM = 0.8
)

// fleetWorkload is one memory-only shard at fleet scale, driven through
// ServeHTTP with no router, socket or log in the way.
type fleetWorkload struct {
	tmp     string
	wd      *world
	models  map[int]*predict.WorkerModel
	seed    int64
	workers []driveWorker
	n       int
	noopUS  float64 // the driver's own cost per request, measured once when tracing
}

func (f *fleetWorkload) setup(ctx context.Context, seed int64) error {
	wd, err := buildWorld(ctx, seed)
	if err != nil {
		return err
	}
	f.wd, f.seed = wd, seed
	rng := rand.New(rand.NewSource(worldSeed ^ 0x5eed)) // where the fleet stands is part of the city
	p := wd.w.Params
	bounds := p.Grid.Bounds()
	base := wd.w.Workers
	f.models = make(map[int]*predict.WorkerModel, fleetWorkers)
	f.workers = make([]driveWorker, fleetWorkers)
	for i := range f.workers {
		wk := &base[i%len(base)]
		day := wk.TestDays[(i/len(base))%len(wk.TestDays)]
		id := i + 1
		f.models[id] = cloneModel(wd.pred.Models[wk.ID], id)
		w := driveWorker{id: id, detour: geo.KMToCells(fleetDetourKM), speed: wk.Speed}
		start := day.StartTick + rng.Intn(p.TicksPerDay/2)
		jitter := geo.Pt(rng.NormFloat64()*4, rng.NormFloat64()*4)
		if i%fleetMoverStep == 0 {
			w.moves = true
			w.at = func(k int) geo.Point {
				q := day.At(start + k)
				return bounds.Clamp(geo.Pt(q.X+jitter.X, q.Y+jitter.Y))
			}
		} else {
			q := day.At(start)
			spot := bounds.Clamp(geo.Pt(q.X+jitter.X, q.Y+jitter.Y))
			w.at = func(int) geo.Point { return spot }
		}
		f.workers[i] = w
	}
	s, _, dir, err := f.fresh(newMeter(), nil)
	if err != nil {
		return err
	}
	os.RemoveAll(dir)
	return s.Close()
}

// fresh boots a shard and brings it to the round's initial state: the fleet
// registered and reporting, the standing task pool submitted. A traced round
// also records a log (never fsynced, never snapshotted) for the shadow
// pipeline to read back.
func (f *fleetWorkload) fresh(m *meter, tr *tracer) (*server.Server, *apiDriver, string, error) {
	f.n++
	dir := filepath.Join(f.tmp, fmt.Sprintf("fleet-%d", f.n))
	cfg := server.Config{Grid: f.wd.w.Params.Grid, Models: f.models}
	if tr.active() {
		cfg.WALDir, cfg.WALSyncEvery, cfg.SnapshotEvery = dir, math.MaxInt32, math.MaxInt32
	}
	s, err := server.New(cfg)
	if err != nil {
		return nil, nil, dir, err
	}
	var h http.Handler = s
	if tr.active() {
		h = tr.wrap("server", s)
	}
	d := &apiDriver{
		call: handlerCaller(h), m: m, opClass: classBatch,
		workers: f.workers, lookahead: lookahead(f.wd.w.Params),
	}
	// Tasks appear where the city's own tasks do, scattered a little so that
	// no two coincide. The stream restarts with every round; how much of it
	// a tick consumes depends only on the replies, which the lockstep makes
	// a function of the seed.
	rng := rand.New(rand.NewSource(f.seed ^ 0x7a5c))
	src, bounds := f.wd.w.TestTasks, f.wd.w.Params.Grid.Bounds()
	d.arrive = func(k int) []driveTask {
		var ts []driveTask
		for n := d.open; n < fleetPool; n++ {
			at := src[rng.Intn(len(src))].Loc
			valid := fleetValidMin + rng.Intn(fleetValidMax-fleetValidMin+1)
			if k == 0 {
				// The standing pool a long-running platform would hold:
				// tasks of every remaining validity.
				valid = 1 + rng.Intn(fleetValidMax)
			}
			ts = append(ts, driveTask{
				loc:      bounds.Clamp(geo.Pt(at.X+rng.NormFloat64()*2, at.Y+rng.NormFloat64()*2)),
				deadline: k + valid,
			})
		}
		return ts
	}
	if err := d.register(); err != nil {
		s.Close()
		return nil, nil, dir, err
	}
	return s, d, dir, nil
}

func (f *fleetWorkload) round(ctx context.Context, m *meter, tr *tracer) error {
	if tr.active() && f.noopUS == 0 {
		var err error
		if f.noopUS, err = noopLatency(func(h http.Handler) (caller, func(), error) {
			return handlerCaller(h), func() {}, nil
		}); err != nil {
			return err
		}
	}
	tr.pause() // the pre-roll is state building
	s, d, dir, err := f.fresh(m, tr)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for k := 0; k < fleetPreroll; k++ {
		d.tick(k)
	}
	d.q = quality{}
	tr.resume()
	hits0, misses0 := cacheCounts(s)
	requests0 := d.requests
	m.begin()
	tr.start()
	for k := fleetPreroll; k < fleetPreroll+fleetTicks; k++ {
		if k > fleetPreroll {
			m.lap() // every tick is a lap
		}
		d.tick(k)
		m.attempted++
		if pool := d.batchInput; pool < fleetPoolMin || pool > fleetPoolMax {
			m.fail("tick %d: open-task pool %d outside [%d, %d]", k, pool, fleetPoolMin, fleetPoolMax)
		}
	}
	m.end(fleetTicks, d.q)
	tr.coverage(m, f.noopUS, d.requests-requests0, "server.")
	tr.trained(f.wd.pred)
	hits1, misses1 := cacheCounts(s)
	tr.count("predict.cache_hits", float64(hits1-hits0))
	tr.count("predict.cache_misses", float64(misses1-misses0))
	if err := s.Close(); err != nil {
		return err
	}
	if tr.active() {
		return tr.shadow(ctx, dir, f.models, math.MaxInt32, filepath.Join(dir, "shadow"))
	}
	return nil
}

// cacheCounts reads the shard's forecast-cache counters from its registry.
func cacheCounts(s *server.Server) (hits, misses int64) {
	reg := s.Registry()
	return reg.Counter("predict_cache_hits").Value(), reg.Counter("predict_cache_misses").Value()
}
