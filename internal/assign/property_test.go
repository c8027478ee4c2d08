package assign

import (
	"context"
	"math/rand"
	"testing"

	"github.com/spatialcrowd/tamp/internal/geo"
)

// TestMatchingMonotoneInEdges: adding an edge can never decrease the
// optimal matching weight.
func TestMatchingMonotoneInEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		nT, nW := rng.Intn(5)+2, rng.Intn(5)+2
		var edges []Edge
		for ti := 0; ti < nT; ti++ {
			for wi := 0; wi < nW; wi++ {
				if rng.Float64() < 0.5 {
					edges = append(edges, Edge{Task: ti, Worker: wi, Weight: rng.Float64() + 0.01})
				}
			}
		}
		total := func(es []Edge) float64 {
			var s float64
			for _, m := range MaxWeightMatching(es) {
				s += m.Weight
			}
			return s
		}
		before := total(edges)
		extra := append(append([]Edge(nil), edges...),
			Edge{Task: rng.Intn(nT), Worker: rng.Intn(nW), Weight: rng.Float64() + 0.01})
		if after := total(extra); after+1e-9 < before {
			t.Fatalf("adding an edge reduced weight: %v -> %v", before, after)
		}
	}
}

// TestPPIMatchesOnlyFeasiblePairs: every pair PPI emits satisfies the
// predicted-path feasibility test it is defined over.
func TestPPIMatchesOnlyFeasiblePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 25; trial++ {
		var tasks []Task
		for i := 0; i < 10; i++ {
			tasks = append(tasks, Task{
				ID:       i,
				Loc:      geo.Pt(rng.Float64()*30, rng.Float64()*30),
				Deadline: rng.Intn(40) + 1,
			})
		}
		var workers []Worker
		for i := 0; i < 6; i++ {
			workers = append(workers, straightWorker(i, rng.Float64()*30, rng.Float64()*30, 8, 8+rng.Float64()*8, rng.Float64()))
		}
		for _, pr := range (PPI{A: 1, Epsilon: 2}).Assign(context.Background(), tasks, workers, 0) {
			w := &workers[pr.Worker]
			dmin := minDistTo(w.Predicted, tasks[pr.Task].Loc)
			if dmin < 0 || dmin > reachCap(w, &tasks[pr.Task], 0)+1e-9 {
				t.Fatalf("PPI emitted infeasible pair task %d worker %d (dmin %v)", pr.Task, pr.Worker, dmin)
			}
		}
	}
}

// TestAssignersHonorExclusions: no assigner may emit a pair the worker
// already declined.
func TestAssignersHonorExclusions(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var tasks []Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, Task{ID: i, Loc: geo.Pt(rng.Float64()*20, rng.Float64()*20), Deadline: 40})
	}
	var workers []Worker
	for i := 0; i < 5; i++ {
		workers = append(workers, straightWorker(i, rng.Float64()*20, rng.Float64()*20, 10, 14, 0.8))
	}
	// Exclude every worker from task 0 and worker 0 from every task.
	for ti := range tasks {
		tasks[ti].Excluded = append(tasks[ti].Excluded, workers[0].ID)
	}
	for wi := range workers {
		tasks[0].Excluded = append(tasks[0].Excluded, workers[wi].ID)
	}
	for _, a := range []Assigner{PPI{A: 1}, KM{}, UB{}, LB{}, GGPSO{Population: 15, Generations: 10}} {
		for _, pr := range a.Assign(context.Background(), tasks, workers, 0) {
			if pr.Task == 0 {
				t.Errorf("%s assigned fully-excluded task 0", a.Name())
			}
			if workers[pr.Worker].ID == workers[0].ID {
				t.Errorf("%s assigned excluded worker 0", a.Name())
			}
		}
	}
}

// TestAssignersDegenerateInputs: empty pools and zero-speed workers must
// not panic or emit pairs.
func TestAssignersDegenerateInputs(t *testing.T) {
	assigners := []Assigner{PPI{A: 1}, KM{}, UB{}, LB{}, GGPSO{}}
	tasks := []Task{{ID: 0, Loc: geo.Pt(5, 5), Deadline: 10}}
	frozen := Worker{ID: 0, Loc: geo.Pt(20, 20), Detour: 10, Speed: 0,
		Predicted: []geo.Point{geo.Pt(20, 20)}, Actual: []geo.Point{geo.Pt(20, 20)}}
	for _, a := range assigners {
		if got := a.Assign(context.Background(), nil, nil, 0); len(got) != 0 {
			t.Errorf("%s assigned with empty pools", a.Name())
		}
		if got := a.Assign(context.Background(), tasks, nil, 0); len(got) != 0 {
			t.Errorf("%s assigned with no workers", a.Name())
		}
		if got := a.Assign(context.Background(), nil, []Worker{frozen}, 0); len(got) != 0 {
			t.Errorf("%s assigned with no tasks", a.Name())
		}
		// A zero-speed worker far away can never serve the task.
		if got := a.Assign(context.Background(), tasks, []Worker{frozen}, 0); len(got) != 0 {
			t.Errorf("%s assigned a frozen distant worker: %v", a.Name(), got)
		}
	}
}

// TestServeDistZeroSpeedAtTask: a zero-speed worker standing exactly on the
// task location can still serve it.
func TestServeDistZeroSpeedAtTask(t *testing.T) {
	w := Worker{ID: 0, Loc: geo.Pt(5, 5), Detour: 4, Speed: 0,
		Actual: []geo.Point{geo.Pt(5, 5), geo.Pt(5, 5)}}
	task := Task{Loc: geo.Pt(5, 5), Deadline: 10}
	if d := ServeDist(&w, &task, 0); d != 0 {
		t.Errorf("ServeDist = %v, want 0", d)
	}
	task.Loc = geo.Pt(6, 5)
	if d := ServeDist(&w, &task, 0); d != -1 {
		t.Errorf("ServeDist for unreachable = %v, want -1", d)
	}
}
