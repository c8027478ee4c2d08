package platform

import (
	"context"
	"math"
	"testing"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/fault"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/predict"
)

// chaosConfig is the regression scenario from the issue: 20% worker churn,
// 10% dropped reports, injected predictor failures, GPS noise, and late
// accept/reject decisions, all at once.
func chaosConfig() fault.Config {
	return fault.Config{
		Seed:               1,
		WorkerChurn:        0.20,
		DropReport:         0.10,
		GPSNoise:           0.10,
		GPSNoiseCells:      1.0,
		PredictorFail:      0.05,
		DecisionDelay:      0.20,
		DecisionDelayTicks: 3,
	}
}

// TestChaosRunSurvivesAndDegradesGracefully is the chaos regression test:
// the full fault cocktail must never panic, every degraded fallback must be
// accounted in Metrics.Faults, and the completion rate must stay within the
// documented envelope of the fault-free run (chaos costs capacity — fewer
// eligible workers, worse forecasts — but must not collapse the platform).
func TestChaosRunSurvivesAndDegradesGracefully(t *testing.T) {
	w, models := simWorkload(t)
	clean := mustSimulate(t, &Run{Workload: w, Models: models, Assigner: assign.PPI{A: predict.DefaultMatchRadius}})
	chaos := mustSimulate(t, &Run{
		Workload: w, Models: models,
		Assigner: assign.PPI{A: predict.DefaultMatchRadius},
		Faults:   fault.New(chaosConfig()),
	})

	fs := chaos.Faults
	t.Logf("clean completion %.3f, chaos completion %.3f, faults %+v",
		clean.CompletionRate(), chaos.CompletionRate(), fs)
	if fs.OfflineTicks == 0 || fs.DroppedReports == 0 || fs.PredFallbacks == 0 ||
		fs.NoisyReports == 0 || fs.DeferredDecisions == 0 {
		t.Fatalf("some fault classes never fired: %+v", fs)
	}
	if chaos.Accepted > chaos.Assigned || chaos.Accepted > chaos.TotalTasks {
		t.Fatalf("impossible accounting under chaos: %+v", chaos)
	}
	if chaos.Accepted == 0 {
		t.Fatal("chaos run completed nothing; platform collapsed instead of degrading")
	}
	// Documented envelope: under this cocktail the platform retains at
	// least half of the fault-free completions. (Churn removes 20% of
	// worker-batch slots and fallback forecasts are weaker, so some loss
	// is expected; total collapse is a regression.)
	if got, want := chaos.CompletionRate(), 0.5*clean.CompletionRate(); got < want {
		t.Errorf("chaos completion %.3f below envelope %.3f (half of clean %.3f)",
			got, want, clean.CompletionRate())
	}
	// The clean run must report no fault events at all.
	if clean.Faults != (FaultStats{}) {
		t.Errorf("fault-free run reported fault events: %+v", clean.Faults)
	}
}

// TestChaosDeterministicAcrossParallelism: fault decisions are pure
// functions of (seed, entity, tick), so the entire chaos run — fault
// counters included — must be bit-identical at every parallelism level.
func TestChaosDeterministicAcrossParallelism(t *testing.T) {
	w, models := simWorkload(t)
	run := func(par int) Metrics {
		m := mustSimulate(t, &Run{
			Workload: w, Models: models,
			Assigner:    assign.PPI{A: predict.DefaultMatchRadius},
			Faults:      fault.New(chaosConfig()),
			Parallelism: par,
		})
		m.AssignTime = 0 // wall-clock; everything else must match exactly
		return m
	}
	a, b := run(1), run(8)
	if a != b {
		t.Fatalf("chaos metrics depend on parallelism:\n par=1: %+v\n par=8: %+v", a, b)
	}
}

// panickingWorkload is one worker whose predictor panics on first use. The
// worker walks (t, 0); the task sits on the route at (5, 0), so at tick 0 a
// stand-still forecast at (0, 0) is 5 cells away, inside the reach cap
// min(d/2, sp·(deadline − tick)) = 10, and the true route passes through it.
func panickingWorkload(a assign.Assigner) (*Run, *fault.PanicModel) {
	tasks := []assign.Task{{ID: 0, Loc: geo.Pt(5, 0), Arrival: 0, Deadline: 10}}
	w := handWorkload(tasks)
	pm := &fault.PanicModel{} // panics on the first Predict call
	models := map[int]*predict.WorkerModel{
		0: {WorkerID: 0, Model: pm, SeqIn: 3, SeqOut: 1},
	}
	return &Run{Workload: w, Models: models, Assigner: a}, pm
}

// TestPanicModelDegradesCleanRunToStandStill: without an injector the
// simulator guards its forecasts exactly as the shard does — a panicking
// predictor degrades its worker to a stand-still forecast in every batch that
// asks it, each such batch counts one fallback, and the run completes.
func TestPanicModelDegradesCleanRunToStandStill(t *testing.T) {
	run, pm := panickingWorkload(assign.KM{})
	reg := obs.NewRegistry()
	m, err := run.Simulate(obs.WithRegistry(context.Background(), reg))
	if err != nil {
		t.Fatalf("a clean run did not absorb the panic: %v", err)
	}
	if pm.Calls() == 0 {
		t.Fatal("the model was never called")
	}
	if m.Faults.PredFallbacks != pm.Calls() {
		t.Errorf("%d fallbacks for %d batches that asked the model", m.Faults.PredFallbacks, pm.Calls())
	}
	if got := reg.Counter("tamp_sim_faults_total", obs.L("kind", "pred_fallback")).Value(); got != int64(m.Faults.PredFallbacks) {
		t.Errorf("tamp_sim_faults_total{kind=pred_fallback} = %d, want %d", got, m.Faults.PredFallbacks)
	}
	if m.Accepted != 1 {
		t.Errorf("accepted %d, want the on-route task served from the stand-still forecast", m.Accepted)
	}
}

// nanModel is a predictor whose every output is NaN.
type nanModel struct {
	nn.Model
	calls int
}

func (n *nanModel) Predict(in [][]float64, seqOut int) [][]float64 {
	n.calls++
	out := make([][]float64, seqOut)
	for i := range out {
		out[i] = []float64{math.NaN(), math.NaN()}
	}
	return out
}

// TestNonFiniteModelDegradesCleanRunToStandStill: a clean run never hands a
// non-finite forecast to the assigner; the worker stands still and the
// fallback is counted, once per batch it enters.
func TestNonFiniteModelDegradesCleanRunToStandStill(t *testing.T) {
	tasks := []assign.Task{{ID: 0, Loc: geo.Pt(5, 0), Arrival: 0, Deadline: 10}}
	nm := &nanModel{}
	var batches []core.BatchAssigned
	run := &Run{
		Workload: handWorkload(tasks),
		Models:   map[int]*predict.WorkerModel{0: {WorkerID: 0, Model: nm, SeqIn: 3, SeqOut: 1}},
		Assigner: assign.KM{},
		EventSink: func(ev core.Event) error {
			if b, ok := ev.(core.BatchAssigned); ok {
				batches = append(batches, b)
			}
			return nil
		},
	}
	m := mustSimulate(t, run)
	if nm.calls == 0 {
		t.Fatal("the model was never called")
	}
	if m.Faults.PredFallbacks == 0 || m.Faults.PredFallbacks != len(batches) {
		t.Errorf("%d fallbacks over %d batches, want one per batch", m.Faults.PredFallbacks, len(batches))
	}
	for i, b := range batches {
		if b.PredFallbacks != 1 {
			t.Errorf("batch %d records %d fallbacks, want 1", i, b.PredFallbacks)
		}
	}
	if m.Accepted != 1 {
		t.Errorf("accepted %d, want the on-route task served from the stand-still forecast", m.Accepted)
	}
}

// TestChaosModePanicDegradesToStandStill: in chaos mode the same panic is
// recovered per worker — the batch proceeds with a stand-still forecast and
// the fallback is counted.
func TestChaosModePanicDegradesToStandStill(t *testing.T) {
	run, _ := panickingWorkload(assign.KM{})
	run.Faults = fault.New(fault.Config{Seed: 2}) // injector on, all rates zero
	m, err := run.Simulate(context.Background())
	if err != nil {
		t.Fatalf("chaos mode did not absorb the panic: %v", err)
	}
	if m.Faults.PredFallbacks == 0 {
		t.Fatal("panic fallback not counted in FaultStats")
	}
	// KM on the stand-still forecast still reaches the on-route task (see
	// panickingWorkload), and the worker's true route serves it.
	if m.Accepted == 0 {
		t.Error("degraded worker completed nothing despite feasible task")
	}
}

// TestPanicModelUnreachedByNonReaders is the converse: UB and LB declare that
// they do not read forecasts, so the panicking model is never reached —
// clean or in chaos mode — and no fallback is counted.
func TestPanicModelUnreachedByNonReaders(t *testing.T) {
	for _, a := range []assign.Assigner{assign.UB{}, assign.LB{}} {
		for _, inj := range []*fault.Injector{nil, fault.New(fault.Config{Seed: 2})} {
			run, pm := panickingWorkload(a)
			run.Faults = inj
			m, err := run.Simulate(context.Background())
			if err != nil {
				t.Fatalf("%s (chaos %v): %v", a.Name(), inj != nil, err)
			}
			if pm.Calls() != 0 || m.Faults.PredFallbacks != 0 {
				t.Errorf("%s (chaos %v): %d model calls, %d fallbacks, want none",
					a.Name(), inj != nil, pm.Calls(), m.Faults.PredFallbacks)
			}
			if m.Accepted != 1 {
				t.Errorf("%s (chaos %v): accepted %d, want the on-route task", a.Name(), inj != nil, m.Accepted)
			}
		}
	}
}
