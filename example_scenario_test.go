package tamp

// An integration test in the spirit of the paper's running example
// (Example 1 / Fig. 2): four workers moving along known trajectories, four
// check-in tasks, and a unique best assignment that prediction-aware
// matching must find.

import (
	"context"
	"testing"

	"github.com/spatialcrowd/tamp/internal/assign"
)

// scenarioWorkers builds four workers whose future trajectories each pass
// exactly through one task location; every worker could serve several tasks
// with a worse detour, so the matcher must solve the coupling globally.
func scenarioWorkers() []AssignWorker {
	mk := func(id int, pts ...Point) AssignWorker {
		w := AssignWorker{ID: id, Loc: pts[0], Detour: 12, Speed: 1, MR: 0.8}
		for _, p := range pts[1:] {
			w.Predicted = append(w.Predicted, p)
			w.Actual = append(w.Actual, p)
		}
		return w
	}
	return []AssignWorker{
		// w0 moves east along y=0 and passes through (5,0).
		mk(0, pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 0), pt(4, 0), pt(5, 0), pt(6, 0)),
		// w1 moves north along x=0 and passes through (0,5).
		mk(1, pt(0, 0), pt(0, 1), pt(0, 2), pt(0, 3), pt(0, 4), pt(0, 5), pt(0, 6)),
		// w2 moves east along y=10 and passes through (5,10).
		mk(2, pt(0, 10), pt(1, 10), pt(2, 10), pt(3, 10), pt(4, 10), pt(5, 10), pt(6, 10)),
		// w3 moves north along x=10 and passes through (10,5).
		mk(3, pt(10, 0), pt(10, 1), pt(10, 2), pt(10, 3), pt(10, 4), pt(10, 5), pt(10, 6)),
	}
}

func pt(x, y float64) Point { return Point{X: x, Y: y} }

func scenarioTasks() []Task {
	return []Task{
		{ID: 0, Loc: pt(5, 0), Deadline: 30},  // on w0's route
		{ID: 1, Loc: pt(0, 5), Deadline: 30},  // on w1's route
		{ID: 2, Loc: pt(5, 10), Deadline: 30}, // on w2's route
		{ID: 3, Loc: pt(10, 5), Deadline: 30}, // on w3's route
	}
}

// TestRunningExampleOptimalPlan: every assigner that sees trajectories
// (UB on actual, PPI and KM on predicted) should recover the unique
// zero-detour plan task i → worker i.
func TestRunningExampleOptimalPlan(t *testing.T) {
	workers := scenarioWorkers()
	tasks := scenarioTasks()
	for _, a := range []Assigner{NewUB(), NewPPI(), NewKM()} {
		pairs := a.Assign(context.Background(), tasks, workers, 0)
		if len(pairs) != 4 {
			t.Fatalf("%s assigned %d pairs, want 4", a.Name(), len(pairs))
		}
		for _, pr := range pairs {
			if pr.Task != pr.Worker {
				t.Errorf("%s matched task %d to worker %d, want the on-route worker",
					a.Name(), pr.Task, pr.Worker)
			}
		}
	}
}

// TestRunningExampleAcceptance: the optimal plan is accepted with zero
// detour cost by every worker.
func TestRunningExampleAcceptance(t *testing.T) {
	workers := scenarioWorkers()
	tasks := scenarioTasks()
	for i := range tasks {
		d := assign.ServeDist(&workers[i], &tasks[i], 0)
		if d != 0 {
			t.Errorf("worker %d serve distance = %v, want 0", i, d)
		}
	}
	// Cross assignments cost strictly more.
	if d := assign.ServeDist(&workers[0], &tasks[2], 0); d >= 0 && d < 5 {
		t.Errorf("cross assignment suspiciously cheap: %v", d)
	}
}

// TestRunningExampleConfidencePriority mirrors Example 2: when two workers
// can serve the same task, PPI gives it to the one whose |B|·MR confidence
// is higher, not merely the closer one.
func TestRunningExampleConfidencePriority(t *testing.T) {
	task := Task{ID: 0, Loc: pt(5, 0), Deadline: 30}
	reliable := scenarioWorkers()[0] // passes exactly through the task
	reliable.MR = 0.9
	sloppy := scenarioWorkers()[0]
	sloppy.ID = 9
	sloppy.MR = 0.05 // same route, unreliable predictions
	pairs := NewPPI().Assign(context.Background(), []Task{task}, []AssignWorker{sloppy, reliable}, 0)
	if len(pairs) != 1 || pairs[0].Worker != 1 {
		t.Fatalf("PPI chose %+v, want the reliable worker (index 1)", pairs)
	}
}
