package platform

import (
	"context"
	"errors"
	"testing"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/fault"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/scenario"
)

// TestSimulateMirrorsRegistry runs simulations, each under a private
// registry, and checks that every tamp_sim_* series equals the Metrics field
// it reports: on a clean run, a chaos run that absorbs all five fault kinds,
// a budget run that both spends and withholds, a windowed run, and a run
// cancelled mid-horizon, whose partial Metrics the registry must match as
// well. Rejects and batches, which Metrics lacks, must equal the recorded
// stream's OfferRejected and BatchAssigned events.
func TestSimulateMirrorsRegistry(t *testing.T) {
	w, models := simWorkload(t)
	ppi := assign.PPI{A: predict.DefaultMatchRadius}
	budget := scenario.BudgetRewards{RewardMin: 1, RewardMax: 5, PerTickKM: 3}.Generate(scenarioParams())
	windows := scenario.DefaultWindows().Generate(scenarioParams())
	horizon := w.Params.TestDays * w.Params.TicksPerDay
	const cancelAt = 30 // the TickAdvanced whose delivery cancels the run

	cases := []struct {
		name     string
		run      Run
		cancel   bool
		exercise func(Metrics) bool // the series the run must move
	}{
		{"clean", Run{Workload: w, Models: models, Assigner: ppi}, false,
			func(m Metrics) bool { return m.Accepted > 0 && m.Assigned > m.Accepted }},
		{"chaos", Run{Workload: w, Models: models, Assigner: ppi, Faults: fault.New(chaosConfig())}, false,
			func(m Metrics) bool {
				f := m.Faults
				return f.OfflineTicks > 0 && f.DroppedReports > 0 && f.NoisyReports > 0 && f.PredFallbacks > 0 && f.DeferredDecisions > 0
			}},
		{"budget", Run{Workload: budget, Assigner: assign.Greedy{}}, false,
			func(m Metrics) bool { return m.BudgetDenied > 0 && m.BudgetSpentKM > 0 }},
		{"windows", Run{Workload: windows, Assigner: assign.Greedy{}}, false,
			func(m Metrics) bool { return m.OffWindow > 0 }},
		{"cancelled", Run{Workload: w, Models: models, Assigner: ppi, Faults: fault.New(chaosConfig())}, true,
			func(m Metrics) bool { return m.Assigned > 0 && m.Faults.DeferredDecisions > 0 }},
	}
	// Other tests in this package simulate under context.Background(), which
	// routes into obs.Default — so leak detection must be a delta, not zero.
	defaultBefore := obs.Default.Counter("tamp_sim_offers_total").Value()
	for _, tc := range cases {
		reg := obs.NewRegistry()
		ctx, cancel := context.WithCancel(obs.WithRegistry(context.Background(), reg))
		var ticks, rejects, batches int64
		tc.run.EventSink = func(ev core.Event) error {
			switch ev.(type) {
			case core.TickAdvanced:
				if ticks++; tc.cancel && ticks == cancelAt {
					cancel()
				}
			case core.OfferRejected:
				rejects++
			case core.BatchAssigned:
				batches++
			}
			return nil
		}
		m, err := tc.run.Simulate(ctx)
		cancel()
		if tc.cancel {
			if !errors.Is(err, context.Canceled) || ticks != cancelAt {
				t.Fatalf("%s: err %v after %d of %d ticks; want the run cancelled at tick %d", tc.name, err, ticks, horizon, cancelAt)
			}
		} else if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.exercise(m) {
			t.Fatalf("%s: the run leaves the series it is here for at zero: %+v", tc.name, m)
		}

		fault := func(kind string) int64 { return reg.Counter("tamp_sim_faults_total", obs.L("kind", kind)).Value() }
		for _, s := range []struct {
			series    string
			got, want int64
		}{
			{"tamp_sim_tasks_total", reg.Counter("tamp_sim_tasks_total").Value(), int64(m.TotalTasks)},
			{"tamp_sim_offers_total", reg.Counter("tamp_sim_offers_total").Value(), int64(m.Assigned)},
			{"tamp_sim_accepts_total", reg.Counter("tamp_sim_accepts_total").Value(), int64(m.Accepted)},
			{"tamp_sim_rejects_total", reg.Counter("tamp_sim_rejects_total").Value(), rejects},
			{"tamp_sim_batches_total", reg.Counter("tamp_sim_batches_total").Value(), batches},
			{"tamp_sim_off_window_total", reg.Counter("tamp_sim_off_window_total").Value(), int64(m.OffWindow)},
			{"tamp_sim_budget_denied_total", reg.Counter("tamp_sim_budget_denied_total").Value(), int64(m.BudgetDenied)},
			{`tamp_sim_faults_total{kind="offline_tick"}`, fault("offline_tick"), int64(m.Faults.OfflineTicks)},
			{`tamp_sim_faults_total{kind="dropped_report"}`, fault("dropped_report"), int64(m.Faults.DroppedReports)},
			{`tamp_sim_faults_total{kind="noisy_report"}`, fault("noisy_report"), int64(m.Faults.NoisyReports)},
			{`tamp_sim_faults_total{kind="pred_fallback"}`, fault("pred_fallback"), int64(m.Faults.PredFallbacks)},
			{`tamp_sim_faults_total{kind="deferred_decision"}`, fault("deferred_decision"), int64(m.Faults.DeferredDecisions)},
			{"tamp_assign_seconds count", reg.Histogram("tamp_assign_seconds", obs.DefSecondsBuckets).Count(), batches},
			{"sim span count", reg.Histogram(obs.PhaseMetric, obs.DefSecondsBuckets, obs.L("phase", "sim")).Count(), 1},
		} {
			if s.got != s.want {
				t.Errorf("%s: %s = %d, want %d", tc.name, s.series, s.got, s.want)
			}
		}
		if got := reg.Gauge("tamp_sim_budget_spent_km").Value(); got != m.BudgetSpentKM {
			t.Errorf("%s: tamp_sim_budget_spent_km = %v, Metrics.BudgetSpentKM = %v", tc.name, got, m.BudgetSpentKM)
		}
		if batches == 0 {
			t.Errorf("%s: no assignment batch ran", tc.name)
		}
		if !tc.cancel && rejects != int64(m.Assigned-m.Accepted) {
			t.Errorf("%s: %d rejects, Assigned-Accepted = %d", tc.name, rejects, m.Assigned-m.Accepted)
		}
		if tc.name == "clean" {
			// PPI ran under the sim span, so its phase path is nested below it.
			ppi := reg.Histogram(obs.PhaseMetric, obs.DefSecondsBuckets, obs.L("phase", "sim/assign.ppi"))
			if ppi.Count() != batches {
				t.Errorf("assign.ppi span count = %d, batches = %d", ppi.Count(), batches)
			}
		}
	}
	// Nothing leaked into the process-wide default registry.
	if got := obs.Default.Counter("tamp_sim_offers_total").Value(); got != defaultBefore {
		t.Errorf("default registry leaked %d offers", got-defaultBefore)
	}
}
