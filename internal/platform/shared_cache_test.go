package platform

import (
	"context"
	"testing"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/fault"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/predict"
)

// A trained set owns one forecast memo (predict.Result.Forecasts) and every
// simulation over the set shares it. The tests here run a sequence of
// simulations that way and demand each equal its uncached twin.

func trainedSet(t *testing.T, testDays int) (*dataset.Workload, *predict.Result) {
	t.Helper()
	p := dataset.Defaults(dataset.Workload1)
	p.NumWorkers = 10
	p.NewWorkers = 0
	p.TrainDays = 2
	p.TestDays = testDays
	p.TicksPerDay = 60
	p.NumTestTasks = 150
	p.NumPOIs = 60
	w := dataset.Generate(p)
	res, err := predict.Train(context.Background(), w, predict.Options{SeqIn: 3, SeqOut: 1, Hidden: 6, MetaIters: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return w, res
}

// simulateInRegistry runs r under a fresh registry and returns the metrics
// (wall-clock AssignTime zeroed) with the cache traffic the run reported.
func simulateInRegistry(t *testing.T, r *Run) (m Metrics, hits, misses int64) {
	t.Helper()
	reg := obs.NewRegistry()
	m, err := r.Simulate(obs.WithRegistry(context.Background(), reg))
	if err != nil {
		t.Fatal(err)
	}
	m.AssignTime = 0
	return m, reg.Counter("predict_cache_hits").Value(), reg.Counter("predict_cache_misses").Value()
}

// TestTrainedSetMemoSharedAcrossRuns: PPI, PPI again, KM, the fault
// cocktail, PPI once more over one trained set and its one memo — every
// Metrics field (Faults included) equals the same run with memoization off,
// and the immediate second PPI pass rolls nothing out, by its own registry.
func TestTrainedSetMemoSharedAcrossRuns(t *testing.T) {
	ppi := assign.PPI{A: predict.DefaultMatchRadius}
	steps := []struct {
		name     string
		assigner assign.Assigner
		chaos    bool
	}{
		{"PPI", ppi, false},
		{"PPI again", ppi, false},
		{"KM", assign.KM{}, false},
		{"chaos PPI", ppi, true},
		{"PPI after chaos", ppi, false},
	}
	for _, par := range []int{1, 8} {
		w, res := trainedSet(t, 1)
		var firstMisses int64
		for i, st := range steps {
			run := func(shared bool) *Run {
				r := &Run{Workload: w, Models: res.Models, Assigner: st.assigner, Parallelism: par}
				if st.chaos {
					r.Faults = fault.New(chaosConfig())
				}
				if shared {
					r.Forecasts = res.Forecasts
				} else {
					r.DisableForecastCache = true
				}
				return r
			}
			shared, hits, misses := simulateInRegistry(t, run(true))
			plain, _, _ := simulateInRegistry(t, run(false))
			if shared != plain {
				t.Fatalf("par %d, %s: the shared memo changed the run:\n shared:   %+v\n uncached: %+v", par, st.name, shared, plain)
			}
			if st.chaos && shared.Faults.PredFallbacks == 0 {
				t.Fatalf("par %d: the chaos pass absorbed no predictor fault", par)
			}
			switch i {
			case 0:
				if firstMisses = misses; misses == 0 {
					t.Fatalf("par %d: the first pass reported no rollout; the run's share of a handed-in cache is not counted", par)
				}
			case 1:
				if misses != 0 || hits != firstMisses {
					t.Fatalf("par %d: second PPI pass reported %d hits, %d misses; want the first pass's %d lookups all reused", par, hits, misses, firstMisses)
				}
			default:
				if hits == 0 {
					t.Fatalf("par %d, %s: reused nothing of the passes before it", par, st.name)
				}
			}
		}
	}
}

// TestTrainedSetMemoAcrossAdaptingRuns: with daily adaptation the first run
// leaves the models a version ahead and the memo full of forecasts from the
// weights before; the second run over the same set must still equal its
// uncached twin (a second, identically trained set put through the same two
// runs).
func TestTrainedSetMemoAcrossAdaptingRuns(t *testing.T) {
	w, res := trainedSet(t, 2)
	_, twin := trainedSet(t, 2)
	for pass := 1; pass <= 2; pass++ {
		shared, hits, misses := simulateInRegistry(t, &Run{
			Workload: w, Models: res.Models, Forecasts: res.Forecasts,
			Assigner: assign.PPI{A: predict.DefaultMatchRadius}, DailyAdaptSteps: 2,
		})
		plain, _, _ := simulateInRegistry(t, &Run{
			Workload: w, Models: twin.Models, DisableForecastCache: true,
			Assigner: assign.PPI{A: predict.DefaultMatchRadius}, DailyAdaptSteps: 2,
		})
		if shared != plain {
			t.Fatalf("pass %d: the shared memo changed an adapting run:\n shared:   %+v\n uncached: %+v", pass, shared, plain)
		}
		if misses == 0 {
			t.Fatalf("pass %d rolled nothing out (%d hits): stale forecasts were served across a weight update", pass, hits)
		}
	}
	if v := res.Models[w.Workers[0].ID].Version(); v != 2 {
		t.Fatalf("model version %d after two two-day adapting runs, want 2", v)
	}
}
