package platform

import (
	"context"
	"math"
	"testing"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/fault"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/predict"
)

// The forecast cache is a pure memo: every test here demands the cached and
// uncached runs agree on every Metrics field except wall-clock AssignTime.

// stationaryWorkload builds the check-in-style workload (long dwells) and
// snaps every test-day fix to a 1-cell grid, the way quantized GPS fixes
// repeat bit-for-bit while a worker idles at a POI. This is the workload
// family the cache exists for: identical windows tick after tick.
func stationaryWorkload(t *testing.T) (*dataset.Workload, map[int]*predict.WorkerModel) {
	t.Helper()
	p := dataset.Defaults(dataset.Workload2)
	p.NumWorkers = 10
	p.NewWorkers = 0
	p.TrainDays = 2
	p.TestDays = 1
	p.TicksPerDay = 60
	p.NumTestTasks = 150
	p.NumPOIs = 60
	w := dataset.Generate(p)
	for wi := range w.Workers {
		for di := range w.Workers[wi].TestDays {
			pts := w.Workers[wi].TestDays[di].Points
			for i, q := range pts {
				pts[i] = geo.Pt(math.Round(q.X), math.Round(q.Y))
			}
		}
	}
	res, err := predict.Train(context.Background(), w, predict.Options{SeqIn: 3, SeqOut: 1, Hidden: 6, MetaIters: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return w, res.Models
}

// TestForecastCacheEquivalence: caching forecasts must not change a single
// metric of a clean simulation.
func TestForecastCacheEquivalence(t *testing.T) {
	w, models := stationaryWorkload(t)
	fc := predict.NewForecastCache(0)
	cached := mustSimulate(t, &Run{
		Workload: w, Models: models,
		Assigner:  assign.PPI{A: predict.DefaultMatchRadius},
		Forecasts: fc,
	})
	uncached := mustSimulate(t, &Run{
		Workload: w, Models: models,
		Assigner: assign.PPI{A: predict.DefaultMatchRadius},
	})
	cached.AssignTime, uncached.AssignTime = 0, 0
	if cached != uncached {
		t.Fatalf("cache changed the simulation:\n cached:   %+v\n uncached: %+v", cached, uncached)
	}
	hits, misses, _ := fc.Stats()
	if hits == 0 {
		t.Fatalf("cache never hit (hits=%d misses=%d); equivalence test is vacuous", hits, misses)
	}
	t.Logf("forecast cache: %d hits, %d misses", hits, misses)
}

// TestForecastCacheEquivalenceUnderChaos repeats the equivalence check with
// the full fault cocktail: injected predictor failures, GPS noise (fresh
// window bits every tick), churn, and dropped reports. Panicking rollouts
// must publish no entry and cached non-finite forecasts must be re-rejected,
// so degraded-mode accounting matches exactly too.
func TestForecastCacheEquivalenceUnderChaos(t *testing.T) {
	w, models := simWorkload(t)
	fc := predict.NewForecastCache(0)
	cached := mustSimulate(t, &Run{
		Workload: w, Models: models,
		Assigner:  assign.PPI{A: predict.DefaultMatchRadius},
		Faults:    fault.New(chaosConfig()),
		Forecasts: fc,
	})
	uncached := mustSimulate(t, &Run{
		Workload: w, Models: models,
		Assigner: assign.PPI{A: predict.DefaultMatchRadius},
		Faults:   fault.New(chaosConfig()),
	})
	cached.AssignTime, uncached.AssignTime = 0, 0
	if cached != uncached {
		t.Fatalf("cache changed the chaos run:\n cached:   %+v\n uncached: %+v", cached, uncached)
	}
	if cached.Faults.PredFallbacks == 0 {
		t.Fatal("chaos run had no predictor fallbacks; the guard path went untested")
	}
}

// TestForecastCacheDeterministicAcrossParallelism: with the cache on, the
// run must stay bit-identical at every parallelism level — per-worker
// sub-caches make hits and misses independent of scheduling order.
func TestForecastCacheDeterministicAcrossParallelism(t *testing.T) {
	w, models := simWorkload(t)
	run := func(par int) Metrics {
		m := mustSimulate(t, &Run{
			Workload: w, Models: models,
			Assigner:    assign.PPI{A: predict.DefaultMatchRadius},
			Forecasts:   predict.NewForecastCache(0),
			Parallelism: par,
		})
		m.AssignTime = 0
		return m
	}
	a, b := run(1), run(8)
	if a != b {
		t.Fatalf("cached metrics depend on parallelism:\n par=1: %+v\n par=8: %+v", a, b)
	}
}

// TestForecastCacheReusedAcrossRuns: a caller-owned cache carried from one
// run to the next (the server's long-lived pattern) still yields identical
// metrics — entries are keyed on exact window bits and model version, so
// stale state cannot leak between runs over the same models.
func TestForecastCacheReusedAcrossRuns(t *testing.T) {
	w, models := simWorkload(t)
	fc := predict.NewForecastCache(0)
	first := mustSimulate(t, &Run{
		Workload: w, Models: models,
		Assigner: assign.PPI{A: predict.DefaultMatchRadius}, Forecasts: fc,
	})
	second := mustSimulate(t, &Run{
		Workload: w, Models: models,
		Assigner: assign.PPI{A: predict.DefaultMatchRadius}, Forecasts: fc,
	})
	first.AssignTime, second.AssignTime = 0, 0
	if first != second {
		t.Fatalf("warm cache changed a repeat run:\n cold: %+v\n warm: %+v", first, second)
	}
}
