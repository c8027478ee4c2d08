package assign

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/spatialcrowd/tamp/internal/geo"
)

func TestMaxWeightMatchingSimple(t *testing.T) {
	edges := []Edge{
		{Task: 0, Worker: 0, Weight: 1},
		{Task: 0, Worker: 1, Weight: 5},
		{Task: 1, Worker: 0, Weight: 4},
		{Task: 1, Worker: 1, Weight: 2},
	}
	got := MaxWeightMatching(edges)
	if len(got) != 2 {
		t.Fatalf("matches = %v", got)
	}
	// Optimal: 0->1 (5) + 1->0 (4) = 9 rather than 1+2=3.
	var total float64
	for _, m := range got {
		total += m.Weight
	}
	if math.Abs(total-9) > 1e-9 {
		t.Errorf("total = %v, want 9", total)
	}
}

func TestMaxWeightMatchingUnbalanced(t *testing.T) {
	// Three tasks, one worker: only the best edge can match.
	edges := []Edge{
		{Task: 0, Worker: 7, Weight: 1},
		{Task: 1, Worker: 7, Weight: 3},
		{Task: 2, Worker: 7, Weight: 2},
	}
	got := MaxWeightMatching(edges)
	if len(got) != 1 || got[0].Task != 1 || got[0].Worker != 7 {
		t.Fatalf("matches = %v", got)
	}
}

func TestMaxWeightMatchingIgnoresNonPositive(t *testing.T) {
	edges := []Edge{
		{Task: 0, Worker: 0, Weight: 0},
		{Task: 1, Worker: 1, Weight: -2},
	}
	if got := MaxWeightMatching(edges); len(got) != 0 {
		t.Errorf("matches = %v, want none", got)
	}
	if got := MaxWeightMatching(nil); got != nil {
		t.Errorf("nil edges = %v", got)
	}
}

func TestMaxWeightMatchingNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		nT, nW := rng.Intn(6)+1, rng.Intn(6)+1
		var edges []Edge
		for ti := 0; ti < nT; ti++ {
			for wi := 0; wi < nW; wi++ {
				if rng.Float64() < 0.6 {
					edges = append(edges, Edge{Task: ti, Worker: wi, Weight: rng.Float64() + 0.01})
				}
			}
		}
		got := MaxWeightMatching(edges)
		seenT, seenW := map[int]bool{}, map[int]bool{}
		for _, m := range got {
			if seenT[m.Task] || seenW[m.Worker] {
				t.Fatalf("duplicate in %v", got)
			}
			seenT[m.Task] = true
			seenW[m.Worker] = true
		}
	}
}

// bruteForceBest finds the optimal matching weight by enumerating all
// assignments recursively (small instances only).
func bruteForceBest(nT, nW int, w map[[2]int]float64) float64 {
	var rec func(ti int, usedW map[int]bool) float64
	rec = func(ti int, usedW map[int]bool) float64 {
		if ti == nT {
			return 0
		}
		best := rec(ti+1, usedW) // leave task ti unassigned
		for wi := 0; wi < nW; wi++ {
			if usedW[wi] {
				continue
			}
			wt, ok := w[[2]int{ti, wi}]
			if !ok {
				continue
			}
			usedW[wi] = true
			if v := wt + rec(ti+1, usedW); v > best {
				best = v
			}
			delete(usedW, wi)
		}
		return best
	}
	return rec(0, map[int]bool{})
}

func TestMaxWeightMatchingOptimalVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		nT, nW := rng.Intn(5)+1, rng.Intn(5)+1
		w := map[[2]int]float64{}
		var edges []Edge
		for ti := 0; ti < nT; ti++ {
			for wi := 0; wi < nW; wi++ {
				if rng.Float64() < 0.7 {
					wt := rng.Float64()*10 + 0.01
					w[[2]int{ti, wi}] = wt
					edges = append(edges, Edge{Task: ti, Worker: wi, Weight: wt})
				}
			}
		}
		want := bruteForceBest(nT, nW, w)
		var got float64
		for _, m := range MaxWeightMatching(edges) {
			got += m.Weight
		}
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("trial %d: matching weight %v, brute force %v (edges %v)", trial, got, want, edges)
		}
	}
}

// straightWorker builds a worker walking right from (x, y) one cell per
// tick for n ticks, with identical predicted and actual paths.
func straightWorker(id int, x, y float64, n int, detour, mr float64) Worker {
	w := Worker{ID: id, Loc: geo.Pt(x, y), Detour: detour, Speed: 1, MR: mr}
	for i := 0; i < n; i++ {
		p := geo.Pt(x+float64(i+1), y)
		w.Predicted = append(w.Predicted, p)
		w.Actual = append(w.Actual, p)
	}
	return w
}

func TestPPIAssignsConfidentFirst(t *testing.T) {
	// Worker 0 has high MR and its path passes straight through task 0;
	// worker 1 has low MR. A single near task must go to the confident
	// worker even though worker 1 is marginally closer.
	tasks := []Task{{ID: 0, Loc: geo.Pt(5, 0), Deadline: 20}}
	w0 := straightWorker(0, 0, 0, 10, 8, 0.9) // path hits (5,0) exactly
	w1 := straightWorker(1, 0, 0.5, 10, 8, 0.05)
	got := (PPI{A: 0.5, Epsilon: 2}).Assign(context.Background(), tasks, []Worker{w0, w1}, 0)
	if len(got) != 1 {
		t.Fatalf("assignments = %v", got)
	}
	if got[0].Worker != 0 {
		t.Errorf("task went to worker %d, want confident worker 0", got[0].Worker)
	}
}

func TestPPIStagesCoverAllFeasible(t *testing.T) {
	// Four tasks along two workers' paths; everything feasible should be
	// assigned across the three stages.
	tasks := []Task{
		{ID: 0, Loc: geo.Pt(3, 0), Deadline: 30},
		{ID: 1, Loc: geo.Pt(3, 10), Deadline: 30},
	}
	w0 := straightWorker(0, 0, 0, 8, 10, 0.6)
	w1 := straightWorker(1, 0, 10, 8, 10, 0.01) // low MR: lands in stage 3
	got := (PPI{A: 0.5, Epsilon: 1}).Assign(context.Background(), tasks, []Worker{w0, w1}, 0)
	if len(got) != 2 {
		t.Fatalf("assignments = %v, want both tasks assigned", got)
	}
	byTask := map[int]int{}
	for _, m := range got {
		byTask[m.Task] = m.Worker
	}
	if byTask[0] != 0 || byTask[1] != 1 {
		t.Errorf("assignment = %v", byTask)
	}
}

func TestPPIRespectsDeadline(t *testing.T) {
	// Task deadline already passed: no assignment possible.
	tasks := []Task{{ID: 0, Loc: geo.Pt(3, 0), Deadline: 2}}
	w := straightWorker(0, 0, 0, 10, 10, 0.9)
	got := PPI{A: 0.5}.Assign(context.Background(), tasks, []Worker{w}, 5)
	if len(got) != 0 {
		t.Errorf("assignments past deadline = %v", got)
	}
}

func TestPPIRespectsDetour(t *testing.T) {
	// Task 6 cells off the path; detour budget 4 (cap 2) makes it
	// infeasible even though the deadline is generous.
	tasks := []Task{{ID: 0, Loc: geo.Pt(3, 6), Deadline: 100}}
	w := straightWorker(0, 0, 0, 10, 4, 0.9)
	got := PPI{A: 0.5}.Assign(context.Background(), tasks, []Worker{w}, 0)
	if len(got) != 0 {
		t.Errorf("assignments beyond detour = %v", got)
	}
}

func TestPPIUniqueAssignments(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tasks []Task
	for i := 0; i < 12; i++ {
		tasks = append(tasks, Task{ID: i, Loc: geo.Pt(rng.Float64()*20, rng.Float64()*20), Deadline: 40})
	}
	var workers []Worker
	for i := 0; i < 8; i++ {
		workers = append(workers, straightWorker(i, rng.Float64()*20, rng.Float64()*20, 10, 10, rng.Float64()))
	}
	got := (PPI{A: 1, Epsilon: 3}).Assign(context.Background(), tasks, workers, 0)
	seenT, seenW := map[int]bool{}, map[int]bool{}
	for _, m := range got {
		if seenT[m.Task] || seenW[m.Worker] {
			t.Fatalf("duplicate in %v", got)
		}
		seenT[m.Task] = true
		seenW[m.Worker] = true
	}
}

func TestKMBaselineMatchesFeasiblePairs(t *testing.T) {
	tasks := []Task{{ID: 0, Loc: geo.Pt(4, 0), Deadline: 30}}
	w := straightWorker(0, 0, 0, 8, 10, 0.5)
	got := (KM{}).Assign(context.Background(), tasks, []Worker{w}, 0)
	if len(got) != 1 || got[0].Worker != 0 {
		t.Fatalf("KM = %v", got)
	}
}

func TestUBUsesActualTrajectory(t *testing.T) {
	// Prediction is wildly wrong; actual path passes through the task.
	w := Worker{ID: 0, Loc: geo.Pt(0, 0), Detour: 8, Speed: 1, MR: 0.5}
	for i := 0; i < 8; i++ {
		w.Predicted = append(w.Predicted, geo.Pt(0, float64(20+i)))
		w.Actual = append(w.Actual, geo.Pt(float64(i+1), 0))
	}
	tasks := []Task{{ID: 0, Loc: geo.Pt(4, 0), Deadline: 30}}
	if got := (UB{}).Assign(context.Background(), tasks, []Worker{w}, 0); len(got) != 1 {
		t.Errorf("UB should match via actual path, got %v", got)
	}
	if got := (KM{}).Assign(context.Background(), tasks, []Worker{w}, 0); len(got) != 0 {
		t.Errorf("KM should fail via predicted path, got %v", got)
	}
}

func TestLBUsesCurrentLocationOnly(t *testing.T) {
	// Worker currently near task A, path leads to task B. LB must pick A.
	w := straightWorker(0, 0, 0, 10, 10, 0.5)
	tasks := []Task{
		{ID: 0, Loc: geo.Pt(1, 0), Deadline: 30},  // near current location
		{ID: 1, Loc: geo.Pt(9, 0), Deadline: 30},  // near path end
		{ID: 2, Loc: geo.Pt(0, 40), Deadline: 30}, // unreachable
	}
	got := (LB{}).Assign(context.Background(), tasks, []Worker{w}, 0)
	if len(got) != 1 || got[0].Task != 0 {
		t.Errorf("LB = %v, want task 0 only", got)
	}
}

func TestGGPSOFeasibleAndUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var tasks []Task
	for i := 0; i < 10; i++ {
		tasks = append(tasks, Task{ID: i, Loc: geo.Pt(rng.Float64()*15, rng.Float64()*15), Deadline: 40})
	}
	var workers []Worker
	for i := 0; i < 6; i++ {
		workers = append(workers, straightWorker(i, rng.Float64()*15, rng.Float64()*15, 12, 10, 0.5))
	}
	g := GGPSO{Population: 20, Generations: 30, Seed: 4}
	got := g.Assign(context.Background(), tasks, workers, 0)
	seenT, seenW := map[int]bool{}, map[int]bool{}
	for _, m := range got {
		if seenT[m.Task] || seenW[m.Worker] {
			t.Fatalf("duplicate in %v", got)
		}
		seenT[m.Task] = true
		seenW[m.Worker] = true
		// Every matched pair must be feasible.
		w := &workers[m.Worker]
		dmin := minDistTo(w.Predicted, tasks[m.Task].Loc)
		if dmin > reachCap(w, &tasks[m.Task], 0) {
			t.Fatalf("infeasible pair in %v", got)
		}
	}
}

func TestGGPSOApproachesKMQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var tasks []Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, Task{ID: i, Loc: geo.Pt(rng.Float64()*12, rng.Float64()*12), Deadline: 40})
	}
	var workers []Worker
	for i := 0; i < 8; i++ {
		workers = append(workers, straightWorker(i, rng.Float64()*12, rng.Float64()*12, 14, 10, 0.5))
	}
	var kmW, ggW float64
	for _, m := range (KM{}).Assign(context.Background(), tasks, workers, 0) {
		kmW += m.Weight
	}
	for _, m := range (GGPSO{Population: 60, Generations: 120, Seed: 2}).Assign(context.Background(), tasks, workers, 0) {
		ggW += m.Weight
	}
	if ggW < kmW*0.7 {
		t.Errorf("GGPSO weight %v too far below KM optimum %v", ggW, kmW)
	}
	if ggW > kmW+1e-9 {
		t.Errorf("GGPSO weight %v exceeds the KM optimum %v: matching bug", ggW, kmW)
	}
}

func TestReachCap(t *testing.T) {
	w := Worker{Detour: 10, Speed: 2}
	task := Task{Deadline: 4}
	// d^t = 2*(4-1) = 6 > d/2 = 5 → cap 5.
	if got := reachCap(&w, &task, 1); got != 5 {
		t.Errorf("cap = %v, want 5", got)
	}
	// d^t = 2*1 = 2 < 5 → cap 2.
	if got := reachCap(&w, &task, 3); got != 2 {
		t.Errorf("cap = %v, want 2", got)
	}
	// Past deadline → infeasible sentinel.
	if got := reachCap(&w, &task, 9); got != -1 {
		t.Errorf("cap = %v, want -1", got)
	}
}

func TestMinDistTo(t *testing.T) {
	path := []geo.Point{geo.Pt(0, 0), geo.Pt(3, 0), geo.Pt(6, 0)}
	if got := minDistTo(path, geo.Pt(3, 4)); math.Abs(got-4) > 1e-12 {
		t.Errorf("minDist = %v", got)
	}
	if got := minDistTo(nil, geo.Pt(0, 0)); got != -1 {
		t.Errorf("empty path minDist = %v", got)
	}
}

func TestAssignerNames(t *testing.T) {
	names := map[string]Assigner{
		"PPI":   PPI{},
		"KM":    KM{},
		"UB":    UB{},
		"LB":    LB{},
		"GGPSO": GGPSO{},
	}
	for want, a := range names {
		if a.Name() != want {
			t.Errorf("Name() = %q, want %q", a.Name(), want)
		}
	}
}

// TestMaxWeightMatchingRectangularLarge exercises the tasks >> workers
// orientation the batch pools produce, checking optimality against brute
// force on the worker side.
func TestMaxWeightMatchingRectangularLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		nT, nW := 40+rng.Intn(40), rng.Intn(4)+1
		w := map[[2]int]float64{}
		var edges []Edge
		for ti := 0; ti < nT; ti++ {
			for wi := 0; wi < nW; wi++ {
				if rng.Float64() < 0.3 {
					wt := rng.Float64()*5 + 0.01
					w[[2]int{ti, wi}] = wt
					edges = append(edges, Edge{Task: ti, Worker: wi, Weight: wt})
				}
			}
		}
		// Brute force over worker assignments (≤ 4 workers, each picks a
		// task or none).
		var best func(wi int, used map[int]bool) float64
		best = func(wi int, used map[int]bool) float64 {
			if wi == nW {
				return 0
			}
			b := best(wi+1, used)
			for ti := 0; ti < nT; ti++ {
				if used[ti] {
					continue
				}
				wt, ok := w[[2]int{ti, wi}]
				if !ok {
					continue
				}
				used[ti] = true
				if v := wt + best(wi+1, used); v > b {
					b = v
				}
				delete(used, ti)
			}
			return b
		}
		want := best(0, map[int]bool{})
		var got float64
		for _, m := range MaxWeightMatching(edges) {
			got += m.Weight
		}
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("trial %d: got %v, want %v (nT=%d nW=%d)", trial, got, want, nT, nW)
		}
	}
}
