package platform

import (
	"context"
	"testing"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/traj"
)

// mustSimulate runs the simulation under a background context, failing the
// test on an unexpected cancellation error.
func mustSimulate(t *testing.T, r *Run) Metrics {
	t.Helper()
	m, err := r.Simulate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func pt(x, y float64) geo.Point { return geo.Pt(x, y) }

func lineRoutine(coords ...float64) traj.Routine {
	var r traj.Routine
	for i := 0; i+1 < len(coords); i += 2 {
		r.Points = append(r.Points, geo.Pt(coords[i], coords[i+1]))
	}
	return r
}

func pts(coords ...float64) []geo.Point {
	var out []geo.Point
	for i := 0; i+1 < len(coords); i += 2 {
		out = append(out, geo.Pt(coords[i], coords[i+1]))
	}
	return out
}

func simWorkload(t *testing.T) (*dataset.Workload, map[int]*predict.WorkerModel) {
	t.Helper()
	w, res := trainedSet(t, 1)
	return w, res.Models
}

func TestMetricsArithmetic(t *testing.T) {
	m := Metrics{TotalTasks: 100, Assigned: 50, Accepted: 40, SumCostKM: 80}
	if m.CompletionRate() != 0.4 {
		t.Errorf("completion = %v", m.CompletionRate())
	}
	if m.RejectionRate() != 0.2 {
		t.Errorf("rejection = %v", m.RejectionRate())
	}
	if m.AvgCostKM() != 2 {
		t.Errorf("cost = %v", m.AvgCostKM())
	}
	var zero Metrics
	if zero.CompletionRate() != 0 || zero.RejectionRate() != 0 || zero.AvgCostKM() != 0 {
		t.Error("zero metrics should be zero")
	}
}

func TestSimulateBasicInvariants(t *testing.T) {
	w, models := simWorkload(t)
	run := Run{Workload: w, Models: models, Assigner: assign.PPI{A: predict.DefaultMatchRadius}}
	m := mustSimulate(t, &run)
	if m.TotalTasks != len(w.TestTasks) {
		t.Errorf("total = %d", m.TotalTasks)
	}
	if m.Accepted > m.Assigned {
		t.Errorf("accepted %d > assigned %d", m.Accepted, m.Assigned)
	}
	if m.Accepted > m.TotalTasks {
		t.Errorf("accepted %d > total %d", m.Accepted, m.TotalTasks)
	}
	if m.Accepted == 0 {
		t.Error("nothing completed; simulation is degenerate")
	}
	if m.SumCostKM < 0 {
		t.Errorf("cost = %v", m.SumCostKM)
	}
	if m.AssignTime <= 0 {
		t.Error("assignment time not recorded")
	}
}

func TestSimulateUBNeverRejected(t *testing.T) {
	w, models := simWorkload(t)
	run := Run{Workload: w, Models: models, Assigner: assign.UB{}}
	m := mustSimulate(t, &run)
	if m.RejectionRate() != 0 {
		t.Errorf("UB rejection rate = %v, want 0", m.RejectionRate())
	}
	if m.Accepted == 0 {
		t.Error("UB completed nothing")
	}
}

func TestSimulateUBIsUpperBound(t *testing.T) {
	w, models := simWorkload(t)
	ub := mustSimulate(t, &Run{Workload: w, Models: models, Assigner: assign.UB{}})
	lb := mustSimulate(t, &Run{Workload: w, Models: models, Assigner: assign.LB{}})
	ppi := mustSimulate(t, &Run{Workload: w, Models: models, Assigner: assign.PPI{A: predict.DefaultMatchRadius}})
	if ub.Accepted < ppi.Accepted {
		t.Errorf("UB completed %d < PPI %d", ub.Accepted, ppi.Accepted)
	}
	if ub.Accepted < lb.Accepted {
		t.Errorf("UB completed %d < LB %d", ub.Accepted, lb.Accepted)
	}
	// LB ignores mobility: it should complete no more than the oracle and
	// typically fewer than prediction-based assignment.
	if lb.Accepted > ub.Accepted {
		t.Errorf("LB %d > UB %d", lb.Accepted, ub.Accepted)
	}
}

func TestSimulateWithoutModelsStandsStill(t *testing.T) {
	w, _ := simWorkload(t)
	run := Run{Workload: w, Models: map[int]*predict.WorkerModel{}, Assigner: assign.KM{}}
	m := mustSimulate(t, &run)
	// Standing-still predictions still allow assignments near workers.
	if m.Assigned == 0 {
		t.Error("no assignments with stand-still predictions")
	}
}

func TestSimulateTaskCarryOver(t *testing.T) {
	// A task rejected early must be retried while its deadline allows:
	// run with a deliberately hostile predictor (all workers predicted at a
	// far corner) and confirm assignments repeat across batches.
	w, models := simWorkload(t)
	run := Run{Workload: w, Models: models, Assigner: assign.KM{}}
	m := mustSimulate(t, &run)
	if m.Assigned < m.Accepted {
		t.Fatal("impossible accounting")
	}
	// With imperfect prediction there must be some rejections AND those
	// tasks must get more than one chance: total assignment attempts exceed
	// distinct tasks ever assigned. We can only check attempts ≥ accepted.
	if m.Assigned == m.Accepted && m.Accepted < m.TotalTasks {
		t.Log("no rejections in this run (acceptable but unusual)")
	}
}

func TestAcceptanceGeometry(t *testing.T) {
	w := assign.Worker{Loc: pt(0, 0), Detour: 10, Speed: 1}
	w.Actual = pts(1, 0, 2, 0, 3, 0)
	task := assign.Task{Loc: pt(3, 4), Deadline: 20}
	cost, ok := acceptance(&w, &task, 0)
	if !ok {
		t.Fatal("should accept")
	}
	if cost != 8 { // closest approach 4 cells, out-and-back 8 ≤ 10
		t.Errorf("cost = %v, want 8", cost)
	}
	// Tighter detour rejects.
	w.Detour = 7
	if _, ok := acceptance(&w, &task, 0); ok {
		t.Error("should reject on detour")
	}
	// Deadline rejects.
	w.Detour = 10
	task.Deadline = 2
	if _, ok := acceptance(&w, &task, 0); ok {
		t.Error("should reject on deadline")
	}
}

func TestAcceptanceIgnoresCurrentLocation(t *testing.T) {
	// Workers serve tasks along their routine, not from where they stand:
	// a worker adjacent to the task but moving away rejects it.
	w := assign.Worker{Loc: pt(0, 0), Detour: 4, Speed: 1}
	w.Actual = pts(10, 0, 20, 0)
	task := assign.Task{Loc: pt(1, 0), Deadline: 5}
	if _, ok := acceptance(&w, &task, 0); ok {
		t.Error("should reject: the task is off the worker's future route")
	}
	// The same task on the route is accepted.
	w.Actual = pts(1, 0, 2, 0)
	cost, ok := acceptance(&w, &task, 0)
	if !ok || cost != 0 {
		t.Errorf("cost/ok = %v/%v, want 0/true", cost, ok)
	}
}

// TestRecentPoints: with no injector, faultyReports is the clean window of
// the most recent true locations, and counts no fault.
func TestRecentPoints(t *testing.T) {
	day := lineRoutine(0, 0, 1, 1, 2, 2, 3, 3)
	var fs FaultStats
	got := faultyReports(nil, nil, 0, day, 0, 8, 2, 2, &fs)
	if len(got) != 2 || got[0] != pt(1, 1) || got[1] != pt(2, 2) {
		t.Errorf("recent = %v", got)
	}
	// Early in the day the window shrinks.
	got = faultyReports(nil, nil, 0, day, 0, 8, 0, 5, &fs)
	if len(got) != 1 || got[0] != pt(0, 0) {
		t.Errorf("early recent = %v", got)
	}
	if fs != (FaultStats{}) {
		t.Errorf("no injector, yet faults counted: %+v", fs)
	}
}

func TestSimulateAssignTimeScalesWithAlgorithm(t *testing.T) {
	w, models := simWorkload(t)
	km := mustSimulate(t, &Run{Workload: w, Models: models, Assigner: assign.KM{}})
	gg := mustSimulate(t, &Run{Workload: w, Models: models, Assigner: assign.GGPSO{Population: 30, Generations: 40}})
	if gg.AssignTime < km.AssignTime {
		t.Errorf("GGPSO time %v < KM time %v; expected genetic search to dominate", gg.AssignTime, km.AssignTime)
	}
	if km.AssignTime <= 0 || gg.AssignTime <= 0 {
		t.Error("times not recorded")
	}
}
