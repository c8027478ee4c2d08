package platform

import (
	"testing"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/traj"
)

// handWorkload builds a minimal workload by hand so failure-injection tests
// control every field.
func handWorkload(tasks []assign.Task) *dataset.Workload {
	p := dataset.Defaults(dataset.Workload1)
	p.NumWorkers = 1
	p.NewWorkers = 0
	p.TestDays = 1
	p.TicksPerDay = 20
	day := traj.Routine{}
	for t := 0; t < p.TicksPerDay; t++ {
		day.Points = append(day.Points, geo.Pt(float64(t), 0))
	}
	return &dataset.Workload{
		Params: p,
		Workers: []dataset.Worker{{
			ID:       0,
			Detour:   20,
			Speed:    1,
			TestDays: []traj.Routine{day},
		}},
		TestTasks: tasks,
	}
}

func TestSimulateMalformedTasks(t *testing.T) {
	tasks := []assign.Task{
		{ID: 0, Loc: geo.Pt(5, 0), Arrival: 0, Deadline: 10},    // fine
		{ID: 1, Loc: geo.Pt(5, 0), Arrival: 8, Deadline: 3},     // expires before arrival
		{ID: 2, Loc: geo.Pt(5, 0), Arrival: 500, Deadline: 600}, // beyond horizon
		{ID: 3, Loc: geo.Pt(-5, -5), Arrival: 0, Deadline: 19},  // off-route location
	}
	w := handWorkload(tasks)
	run := Run{Workload: w, Models: map[int]*predict.WorkerModel{}, Assigner: assign.UB{}}
	m := mustSimulate(t, &run)
	if m.TotalTasks != 4 {
		t.Errorf("total = %d", m.TotalTasks)
	}
	// Only the well-formed on-route task is completable.
	if m.Accepted != 1 {
		t.Errorf("accepted = %d, want 1", m.Accepted)
	}
	if m.RejectionRate() != 0 {
		t.Errorf("UB rejection = %v", m.RejectionRate())
	}
}

func TestSimulateNoWorkers(t *testing.T) {
	w := handWorkload([]assign.Task{{ID: 0, Loc: geo.Pt(1, 0), Deadline: 10}})
	w.Workers = nil
	run := Run{Workload: w, Models: map[int]*predict.WorkerModel{}, Assigner: assign.KM{}}
	m := mustSimulate(t, &run)
	if m.Assigned != 0 || m.Accepted != 0 {
		t.Errorf("assignments with no workers: %+v", m)
	}
}

func TestSimulateNoTasks(t *testing.T) {
	w := handWorkload(nil)
	run := Run{Workload: w, Models: map[int]*predict.WorkerModel{}, Assigner: assign.KM{}}
	m := mustSimulate(t, &run)
	if m.TotalTasks != 0 || m.Assigned != 0 {
		t.Errorf("metrics for empty task stream: %+v", m)
	}
}

func TestSimulateBusyWorkerUnavailable(t *testing.T) {
	// Two immediate tasks on the route; the one worker, busy serving the
	// first for its detour plus the service time, can take only the first
	// within the deadline window.
	tasks := []assign.Task{
		{ID: 0, Loc: geo.Pt(1, 0), Arrival: 0, Deadline: 3},
		{ID: 1, Loc: geo.Pt(2, 0), Arrival: 0, Deadline: 3},
	}
	w := handWorkload(tasks)
	run := Run{Workload: w, Models: map[int]*predict.WorkerModel{}, Assigner: assign.UB{}}
	m := mustSimulate(t, &run)
	if m.Accepted != 1 {
		t.Errorf("accepted = %d, want exactly 1 under a long service time", m.Accepted)
	}
}
