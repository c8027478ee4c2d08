package tamp

import (
	"context"
	"testing"

	"github.com/spatialcrowd/tamp/internal/obs"
)

func quickParams(kind WorkloadKind) WorkloadParams {
	p := DefaultWorkloadParams(kind)
	p.NumWorkers = 8
	p.NewWorkers = 1
	p.TrainDays = 2
	p.TestDays = 1
	p.TicksPerDay = 50
	p.NumTestTasks = 120
	p.NumPOIs = 60
	return p
}

func quickTrain() TrainOptions {
	return TrainOptions{SeqIn: 3, SeqOut: 1, Hidden: 6, MetaIters: 4, Seed: 3}
}

func TestEndToEndPipeline(t *testing.T) {
	ctx := context.Background()
	w := GenerateWorkload(quickParams(Workload1))
	pred, err := TrainPredictors(ctx, w, quickTrain())
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Models) != len(w.Workers) {
		t.Fatalf("models = %d, want %d", len(pred.Models), len(w.Workers))
	}
	m, err := Simulate(ctx, w, pred, NewPPI())
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalTasks != len(w.TestTasks) {
		t.Errorf("total tasks = %d", m.TotalTasks)
	}
	if m.Accepted == 0 {
		t.Error("end-to-end run completed nothing")
	}
	if m.CompletionRate() < 0 || m.CompletionRate() > 1 {
		t.Errorf("completion = %v", m.CompletionRate())
	}
}

// TestSecondSimulateRollsNothingOut is the `make memocheck` gate, exact and
// timing-free: two PPI simulations over one Predictors through the public
// facade. The second must find every forecast it asks for in the memo the
// first filled (Predictors.Forecasts) — zero rollouts by the run's own
// registry — and return the same metrics.
func TestSecondSimulateRollsNothingOut(t *testing.T) {
	w := GenerateWorkload(quickParams(Workload1))
	pred, err := TrainPredictors(context.Background(), w, quickTrain())
	if err != nil {
		t.Fatal(err)
	}
	simulate := func() (Metrics, int64, int64) {
		reg := obs.NewRegistry()
		m, err := Simulate(obs.WithRegistry(context.Background(), reg), w, pred, NewPPI())
		if err != nil {
			t.Fatal(err)
		}
		m.AssignTime = 0
		return m, reg.Counter("predict_cache_hits").Value(), reg.Counter("predict_cache_misses").Value()
	}
	first, _, rolledOut := simulate()
	if rolledOut == 0 {
		t.Fatal("the first simulation reported no rollout")
	}
	second, reused, again := simulate()
	if again != 0 || reused < rolledOut {
		t.Fatalf("second simulation: %d rolled out, %d reused; want 0 and at least the first pass's %d", again, reused, rolledOut)
	}
	if first != second {
		t.Fatalf("reusing forecasts changed the run:\n first:  %+v\n second: %+v", first, second)
	}
}

func TestAllAssignersRun(t *testing.T) {
	ctx := context.Background()
	w := GenerateWorkload(quickParams(Workload1))
	pred, err := TrainPredictors(ctx, w, quickTrain())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Assigner{NewPPI(), NewKM(), NewUB(), NewLB(), NewGGPSO(1)} {
		m, err := Simulate(ctx, w, pred, a)
		if err != nil {
			t.Fatal(err)
		}
		if m.Accepted > m.Assigned {
			t.Errorf("%s: accepted > assigned", a.Name())
		}
	}
}

func TestTrainAlgorithmsViaFacade(t *testing.T) {
	w := GenerateWorkload(quickParams(Workload2))
	for _, alg := range []string{AlgMAML, AlgCTML, AlgGTTAMLGT, AlgGTTAML} {
		opts := quickTrain()
		opts.Algorithm = alg
		pred, err := TrainPredictors(context.Background(), w, opts)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if pred.Trained.Algorithm != alg {
			t.Errorf("algorithm = %q, want %q", pred.Trained.Algorithm, alg)
		}
	}
}

func TestUnitConversions(t *testing.T) {
	if KMToCells(1) != 5 {
		t.Errorf("KMToCells(1) = %v", KMToCells(1))
	}
	if CellsToKM(5) != 1 {
		t.Errorf("CellsToKM(5) = %v", CellsToKM(5))
	}
}

func TestWorkloadDefaults(t *testing.T) {
	p := DefaultWorkloadParams(Workload1)
	if p.Kind != Workload1 || p.NumWorkers == 0 || p.NumTestTasks == 0 {
		t.Errorf("defaults = %+v", p)
	}
}
