package platform

import (
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/predict"
)

// simObs is the single code path for every event counter of a simulation
// run: each bump updates both the API-visible Metrics struct and the
// registry attached to the run's context, so live scrapes and the returned
// Metrics can never disagree. Handles are resolved once per run — updates on
// the tick path are single atomic ops.
type simObs struct {
	m *Metrics

	batches *obs.Counter // tamp_sim_batches_total: assignment batches run
	offers  *obs.Counter // tamp_sim_offers_total: |M| assignments proposed
	accepts *obs.Counter // tamp_sim_accepts_total: |M′| assignments accepted
	rejects *obs.Counter // tamp_sim_rejects_total: worker reject decisions
	tasks   *obs.Counter // tamp_sim_tasks_total: tasks arrived in the horizon

	faultOffline  *obs.Counter // tamp_sim_faults_total{kind=...}
	faultDropped  *obs.Counter
	faultNoisy    *obs.Counter
	faultPredFB   *obs.Counter
	faultDeferred *obs.Counter

	offWindow    *obs.Counter // tamp_sim_off_window_total: slots outside availability windows
	budgetDenied *obs.Counter // tamp_sim_budget_denied_total: offers withheld by the budget gate
	budgetSpent  *obs.Gauge   // tamp_sim_budget_spent_km: predicted spend charged to the budget

	assignSec *obs.Histogram // tamp_assign_seconds: per-batch matching time
}

func newSimObs(reg *obs.Registry, m *Metrics) *simObs {
	fault := func(kind string) *obs.Counter {
		return reg.Counter("tamp_sim_faults_total", obs.L("kind", kind))
	}
	return &simObs{
		m:             m,
		batches:       reg.Counter("tamp_sim_batches_total"),
		offers:        reg.Counter("tamp_sim_offers_total"),
		accepts:       reg.Counter("tamp_sim_accepts_total"),
		rejects:       reg.Counter("tamp_sim_rejects_total"),
		tasks:         reg.Counter("tamp_sim_tasks_total"),
		faultOffline:  fault("offline_tick"),
		faultDropped:  fault("dropped_report"),
		faultNoisy:    fault("noisy_report"),
		faultPredFB:   fault("pred_fallback"),
		faultDeferred: fault("deferred_decision"),
		offWindow:     reg.Counter("tamp_sim_off_window_total"),
		budgetDenied:  reg.Counter("tamp_sim_budget_denied_total"),
		budgetSpent:   reg.Gauge("tamp_sim_budget_spent_km"),
		assignSec:     reg.Histogram("tamp_assign_seconds", obs.DefSecondsBuckets),
	}
}

func (s *simObs) arrived(n int) {
	s.m.TotalTasks = n
	s.tasks.Add(int64(n))
}

func (s *simObs) assigned() {
	s.m.Assigned++
	s.offers.Inc()
}

func (s *simObs) accepted(costCells float64) {
	s.m.Accepted++
	s.m.SumCostKM += geo.CellsToKM(costCells)
	s.accepts.Inc()
}

func (s *simObs) rejected() { s.rejects.Inc() }

func (s *simObs) offline(n int) {
	s.m.Faults.OfflineTicks += n
	s.faultOffline.Add(int64(n))
}

func (s *simObs) droppedReports(n int) {
	s.m.Faults.DroppedReports += n
	s.faultDropped.Add(int64(n))
}

func (s *simObs) noisyReports(n int) {
	s.m.Faults.NoisyReports += n
	s.faultNoisy.Add(int64(n))
}

func (s *simObs) predFallbacks(n int) {
	s.m.Faults.PredFallbacks += n
	s.faultPredFB.Add(int64(n))
}

func (s *simObs) deferredDecision() {
	s.m.Faults.DeferredDecisions++
	s.faultDeferred.Inc()
}

func (s *simObs) offWindowSkip() {
	s.m.OffWindow++
	s.offWindow.Inc()
}

func (s *simObs) budgetDeny(n int) {
	s.m.BudgetDenied += n
	s.budgetDenied.Add(int64(n))
}

func (s *simObs) budgetSpend(km float64) {
	s.m.BudgetSpentKM += km
	s.budgetSpent.Add(km)
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
