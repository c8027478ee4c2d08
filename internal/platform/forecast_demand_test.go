package platform

import (
	"fmt"
	"testing"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/fault"
	"github.com/spatialcrowd/tamp/internal/predict"
)

// Forecasts are computed only for a plan that reads them. The tests here run
// LB and UB bare — no model call — and behind forwarded, which the platform
// must forecast for, and demand the two agree on every Metrics field.

// forwarded hands every batch to Assigner. The field is not embedded, so
// the inner ReadsForecast method is not promoted and the wrapper reads as an
// external assigner: forecast for.
type forwarded struct{ Assigner assign.Assigner }

func (f forwarded) Name() string { return f.Assigner.Name() }
func (f forwarded) Assign(tasks []assign.Task, workers []assign.Worker, tick int) []assign.Pair {
	return f.Assigner.Assign(tasks, workers, tick)
}

// simulateCounted runs r over a fresh caller-owned forecast cache and
// returns the metrics (wall-clock zeroed) with the cache's lookup count.
func simulateCounted(t *testing.T, r Run) (Metrics, int64) {
	t.Helper()
	r.Forecasts = predict.NewForecastCache(0)
	m := mustSimulate(t, &r)
	m.AssignTime = 0
	hits, misses, _ := r.Forecasts.Stats()
	return m, hits + misses
}

func TestNonReadersSkipForecastsWithIdenticalMetrics(t *testing.T) {
	w, models := simWorkload(t)
	for _, a := range []assign.Assigner{assign.LB{}, assign.UB{}} {
		for _, chaos := range []bool{false, true} {
			for _, par := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/chaos=%v/par=%d", a.Name(), chaos, par), func(t *testing.T) {
					run := Run{Workload: w, Models: models, Parallelism: par}
					if chaos {
						run.Faults = fault.New(chaosConfig())
					}
					run.Assigner = a
					bare, bareLookups := simulateCounted(t, run)
					if chaos {
						run.Faults = fault.New(chaosConfig())
					}
					run.Assigner = forwarded{a}
					wrapped, wrappedLookups := simulateCounted(t, run)
					if bare != wrapped {
						t.Fatalf("skipping the forecasts changed the run:\n bare:    %+v\n wrapped: %+v", bare, wrapped)
					}
					if bareLookups != 0 {
						t.Errorf("bare %s made %d forecast lookups, want 0", a.Name(), bareLookups)
					}
					if wrappedLookups == 0 {
						t.Error("the wrapper was not forecast for; the comparison is vacuous")
					}
					if bare.Accepted == 0 {
						t.Error("nothing was served; the comparison is vacuous")
					}
					if chaos && (bare.Faults.PredFallbacks == 0 || bare.Faults.DroppedReports == 0 || bare.Faults.NoisyReports == 0) {
						t.Errorf("injected faults must be tallied with the forecasts skipped: %+v", bare.Faults)
					}
				})
			}
		}
	}
}

// TestBudgetGateKeepsForecasts: the budget gate prices offers off
// Worker.Predicted, so on a budgeted workload even LB is forecast for and
// spends exactly what the wrapped LB spends.
func TestBudgetGateKeepsForecasts(t *testing.T) {
	w, models := simWorkload(t)
	w.Budget = dataset.BudgetSpec{Enabled: true, PerTickKM: 3}
	bare, bareLookups := simulateCounted(t, Run{Workload: w, Models: models, Assigner: assign.LB{}})
	wrapped, _ := simulateCounted(t, Run{Workload: w, Models: models, Assigner: forwarded{assign.LB{}}})
	if bareLookups == 0 {
		t.Fatal("LB under a budget made no forecast lookups; the gate would price offers off stand-still")
	}
	if bare != wrapped {
		t.Fatalf("budgeted LB differs from its wrapper:\n bare:    %+v\n wrapped: %+v", bare, wrapped)
	}
	if bare.BudgetSpentKM == 0 || bare.BudgetDenied == 0 {
		t.Errorf("the gate never bit (spent %v km, denied %d); the comparison is vacuous", bare.BudgetSpentKM, bare.BudgetDenied)
	}
}
