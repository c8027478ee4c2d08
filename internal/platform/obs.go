package platform

import (
	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/predict"
)

// writeSimSeries adds one run's tallies to reg, every tamp_sim_* series in
// one place: each from its Metrics field, rejects and batches, which have
// none, from the run state's counts c. Simulate calls it once, as it
// returns.
func writeSimSeries(reg *obs.Registry, m *Metrics, c core.Counts) {
	reg.Counter("tamp_sim_tasks_total").Add(int64(m.TotalTasks))           // tasks arrived in the horizon
	reg.Counter("tamp_sim_offers_total").Add(int64(m.Assigned))            // |M| assignments proposed
	reg.Counter("tamp_sim_accepts_total").Add(int64(m.Accepted))           // |M′| assignments accepted
	reg.Counter("tamp_sim_rejects_total").Add(c.Rejects)                   // worker reject decisions
	reg.Counter("tamp_sim_batches_total").Add(c.Batches)                   // assignment batches run
	reg.Counter("tamp_sim_off_window_total").Add(int64(m.OffWindow))       // slots outside availability windows
	reg.Counter("tamp_sim_budget_denied_total").Add(int64(m.BudgetDenied)) // offers withheld by the budget gate
	reg.Gauge("tamp_sim_budget_spent_km").Add(m.BudgetSpentKM)             // predicted spend charged to the budget
	fault := func(kind string, n int) {
		reg.Counter("tamp_sim_faults_total", obs.L("kind", kind)).Add(int64(n))
	}
	fault("offline_tick", m.Faults.OfflineTicks)
	fault("dropped_report", m.Faults.DroppedReports)
	fault("noisy_report", m.Faults.NoisyReports)
	fault("pred_fallback", m.Faults.PredFallbacks)
	fault("deferred_decision", m.Faults.DeferredDecisions)
}

// reportForecastTraffic adds to reg what fc has hit, missed and evicted since
// the reading (hits0, misses0, evictions0): a run's own share of a cache it
// was handed, under the names an owner's Instrument mirrors into.
func reportForecastTraffic(reg *obs.Registry, fc *predict.ForecastCache, hits0, misses0, evictions0 int64) {
	hits, misses, evictions := fc.Stats()
	reg.Counter("predict_cache_hits").Add(hits - hits0)
	reg.Counter("predict_cache_misses").Add(misses - misses0)
	reg.Counter("predict_cache_evictions").Add(evictions - evictions0)
}
