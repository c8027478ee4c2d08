package assign

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/obs"
)

// randInstance generates one randomized assignment batch exercising the
// kernel's edge cases: zero, negative and huge detours, zero speeds, empty
// and long point sets, coincident tasks, tasks far outside the city, a
// single task, excluded workers, expired deadlines, and either uniform or
// clustered geometry. Batch sizes straddle gridMinPairs on both sides. One
// instance in four is hostile: NaN/±Inf task and worker coordinates and
// infinite detours, which must send the whole batch to the scan.
func randInstance(rng *rand.Rand, clustered bool) ([]Task, []Worker, int) {
	nT := 1 + rng.Intn(120)
	if rng.Intn(10) == 0 {
		nT = 1
	}
	nW := 1 + rng.Intn(200)
	hostile := rng.Intn(4) == 0
	tick := rng.Intn(4)
	side := 40.0
	cluster := func() (float64, float64) {
		if !clustered {
			return rng.Float64() * side, rng.Float64() * side
		}
		// A handful of dense spots plus background noise.
		cx := float64(rng.Intn(3)) * 15
		cy := float64(rng.Intn(2)) * 20
		return cx + rng.NormFloat64()*2, cy + rng.NormFloat64()*2
	}
	nonFinite := func() float64 {
		return [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
	}
	tasks := make([]Task, nT)
	for i := range tasks {
		x, y := cluster()
		switch {
		case i > 0 && rng.Float64() < 0.1: // coincident with an earlier task
			x, y = tasks[rng.Intn(i)].Loc.X, tasks[rng.Intn(i)].Loc.Y
		case rng.Float64() < 0.05: // far outside the city
			x, y = x+(rng.Float64()-0.5)*1e4, y+(rng.Float64()-0.5)*1e4
		case hostile && rng.Float64() < 0.05:
			x = nonFinite()
		}
		t := Task{ID: i, Loc: geo.Pt(x, y), Deadline: rng.Intn(20)}
		if rng.Float64() < 0.2 {
			t.Deadline = tick - 1 - rng.Intn(3) // already expired
		}
		for w := 0; w < nW; w++ {
			if rng.Float64() < 0.05 {
				t.Excluded = append(t.Excluded, w)
			}
		}
		tasks[i] = t
	}
	workers := make([]Worker, nW)
	for i := range workers {
		x, y := cluster()
		steps := rng.Intn(13) // 0..12, empty point sets included
		pred := make([]geo.Point, 0, steps)
		act := make([]geo.Point, 0, steps)
		px, py := x, y
		for j := 0; j < steps; j++ {
			px += rng.NormFloat64() * 1.5
			py += rng.NormFloat64() * 1.5
			p := geo.Pt(px, py)
			a := geo.Pt(px+rng.NormFloat64()*0.5, py+rng.NormFloat64()*0.5)
			if hostile && rng.Float64() < 0.02 {
				p.X = nonFinite()
			}
			if hostile && rng.Float64() < 0.02 {
				a.Y = nonFinite()
			}
			pred = append(pred, p)
			act = append(act, a)
		}
		detour := rng.Float64() * 12
		switch rng.Intn(12) {
		case 0:
			detour = 0
		case 1:
			detour = -rng.Float64() * 4
		case 2:
			if hostile {
				detour = math.Inf(1)
			}
		}
		loc := geo.Pt(x, y)
		if hostile && rng.Float64() < 0.02 {
			loc.Y = nonFinite()
		}
		workers[i] = Worker{
			ID:        i,
			Loc:       loc,
			Detour:    detour,
			Speed:     rng.Float64() * 3, // 0 included
			Predicted: pred,
			Actual:    act,
			MR:        rng.Float64() * 1.2,
		}
	}
	return tasks, workers, tick
}

// plansEqual is DeepEqual over []Pair except that NaN weights compare equal
// to themselves: a NaN predicted coordinate produces the same NaN-weighted
// pair on both paths, and that still counts as the same plan.
func plansEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Task != b[i].Task || a[i].Worker != b[i].Worker || !sameFloat(a[i].Weight, b[i].Weight) {
			return false
		}
	}
	return true
}

func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// kernelModes are the predicates the six assigners query the kernel with.
var kernelModes = []struct {
	name string
	mode pairMode
	a    float64
}{
	{"confident", pairConfident, 0.5},
	{"confident_negA", pairConfident, -1},
	{"confident_zeroA", pairConfident, 0},
	{"path", pairPath, 0},
	{"loc", pairLoc, 0},
	{"serve", pairServe, 0},
}

// gridScan prepares a scan that takes the grid whatever the batch size;
// ok=false when the geometry is non-finite and only the scan can serve it.
func gridScan(ws *Workspace, tasks []Task, workers []Worker, tick, parallelism int, mode pairMode) (pairScan, bool) {
	s := ws.newPairScan(WithBruteScan(context.Background()), tasks, workers, tick, parallelism, mode)
	s.grid = finiteWorkers(workers, mode) && s.buildGrid()
	return s, s.grid
}

// TestIndexedPlansMatchBruteOracle is the kernel's contract: for every
// assigner, the production path (task grid above gridMinPairs, scan below
// it or on non-finite geometry) must return the exact same []Pair as the
// exhaustive scan under WithBruteScan, at parallelism 1 and 8, across
// randomized instances. The workspace is reused across instances on the
// production side to also prove rebuilds don't leak state between batches.
func TestIndexedPlansMatchBruteOracle(t *testing.T) {
	ws := NewWorkspace()
	ctx := WithWorkspace(context.Background(), ws)
	oracle := WithBruteScan(context.Background())
	var onGrid, onScan int
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tasks, workers, tick := randInstance(rng, seed%2 == 0)
		if ws.newPairScan(ctx, tasks, workers, tick, 1, pairConfident).grid {
			onGrid++
		} else {
			onScan++
		}
		for _, parallelism := range []int{1, 8} {
			assigners := []Assigner{
				PPI{A: 0.5, Parallelism: parallelism},
				PPI{A: -1, Parallelism: parallelism},
				PPI{A: math.NaN(), Parallelism: parallelism},
				KM{Parallelism: parallelism},
				UB{Parallelism: parallelism},
				Greedy{Parallelism: parallelism},
				LB{},
				GGPSO{Population: 10, Generations: 6, Seed: seed},
			}
			for _, a := range assigners {
				got := Do(ctx, a, tasks, workers, tick)
				want := Do(oracle, a, tasks, workers, tick)
				if !plansEqual(got, want) {
					t.Fatalf("seed %d par %d %s %+v: plan differs from brute oracle\nkernel: %v\nbrute:  %v",
						seed, parallelism, a.Name(), a, got, want)
				}
			}
		}
	}
	// The suite must sit on both sides of the selection rule.
	if onGrid < 20 || onScan < 20 {
		t.Fatalf("instances on the grid: %d, on the scan: %d; want at least 20 of each", onGrid, onScan)
	}
}

// TestCandidateViewSuperset checks the prefilter invariant directly: every
// task the exact predicate accepts for a worker must be among the tasks the
// worker's disks probe (the prefilter may return more — never fewer), for
// every mode, with the grid forced onto batches of every size.
func TestCandidateViewSuperset(t *testing.T) {
	check := func(t *testing.T, label string, tasks []Task, workers []Worker, tick int) bool {
		t.Helper()
		for _, m := range kernelModes {
			ws := NewWorkspace()
			s, ok := gridScan(ws, tasks, workers, tick, 1, m.mode)
			if !ok {
				return false
			}
			sl := pairSlot{seen: make([]int32, len(tasks))}
			for wi := range workers {
				probed := make(map[int32]bool)
				for _, ti := range s.near(&sl, wi, m.mode, m.a) {
					if probed[ti] {
						t.Fatalf("%s %s: task %d probed twice for worker %d", label, m.name, ti, wi)
					}
					probed[ti] = true
				}
				for ti := range tasks {
					if n, _ := m.mode.eval(&tasks[ti], &workers[wi], tick, m.a); n > 0 && !probed[int32(ti)] {
						t.Fatalf("%s %s: feasible pair (task %d, worker %d) never probed", label, m.name, ti, wi)
					}
				}
			}
		}
		return true
	}
	var finite int
	for seed := int64(100); seed < 140; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tasks, workers, tick := randInstance(rng, seed%2 == 0)
		if check(t, "random", tasks, workers, tick) {
			finite++
		}
	}
	if finite < 20 {
		t.Fatalf("only %d finite instances reached the prefilter", finite)
	}

	// Tasks placed exactly on the rim of a reach disk, at coordinates of
	// every magnitude: the rounding in d + a ≤ reach, in the distance and in
	// the box corners must all stay inside the prefilter's slack.
	rng := rand.New(rand.NewSource(7))
	for _, origin := range []float64{0, 1, 1e3, 1e6, -1e9, 1e12} {
		var tasks []Task
		var workers []Worker
		for wi := 0; wi < 40; wi++ {
			detour := math.Ldexp(1+rng.Float64(), rng.Intn(24)-12)
			p := geo.Pt(origin+rng.NormFloat64()*detour, origin+rng.NormFloat64()*detour)
			workers = append(workers, Worker{
				ID: wi, Loc: p, Detour: detour, Speed: 1e300, MR: 1,
				Predicted: []geo.Point{p}, Actual: []geo.Point{p},
			})
			for _, m := range kernelModes {
				for k := 0; k < 6; k++ {
					th := rng.Float64() * 2 * math.Pi
					r := math.Max(detour/2-m.a, 0)
					tasks = append(tasks, Task{
						ID: len(tasks), Deadline: 1 << 20,
						Loc: geo.Pt(p.X+r*math.Cos(th), p.Y+r*math.Sin(th)),
					})
				}
			}
		}
		if !check(t, "rim", tasks, workers, 0) {
			t.Fatalf("rim instance at origin %g is not finite", origin)
		}
	}
}

// TestIndexedEdgeSetMatchesBrute compares the kernel's feasible-pair list
// itself — order, |B| and distances, not just the matching built from it —
// between the forced grid and the scan, for every mode, with and without
// skip lists, at parallelism 1 and 8.
func TestIndexedEdgeSetMatchesBrute(t *testing.T) {
	for seed := int64(200); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tasks, workers, tick := randInstance(rng, seed%3 == 0)
		var skipT, skipW []bool
		if seed%2 == 0 {
			skipT, skipW = make([]bool, len(tasks)), make([]bool, len(workers))
			for i := range skipT {
				skipT[i] = rng.Intn(3) == 0
			}
			for i := range skipW {
				skipW[i] = rng.Intn(3) == 0
			}
		}
		for _, m := range kernelModes {
			for _, parallelism := range []int{1, 8} {
				ctx := context.Background()
				brute := NewWorkspace().newPairScan(WithBruteScan(ctx), tasks, workers, tick, 1, m.mode)
				want := brute.feasible(ctx, m.mode, m.a, skipT, skipW)
				grid, ok := gridScan(NewWorkspace(), tasks, workers, tick, parallelism, m.mode)
				if !ok {
					continue
				}
				got := grid.feasible(ctx, m.mode, m.a, skipT, skipW)
				equal := len(got.pairs) == len(want.pairs) && len(got.start) == len(want.start)
				for i := 0; equal && i < len(got.pairs); i++ {
					g, w := got.pairs[i], want.pairs[i]
					equal = g.task == w.task && g.worker == w.worker && g.n == w.n && sameFloat(g.dist, w.dist)
				}
				for i := 0; equal && i < len(got.start); i++ {
					equal = got.start[i] == want.start[i]
				}
				if !equal {
					t.Fatalf("seed %d %s par %d: grid pairs differ from scan\ngrid: %v\nscan: %v",
						seed, m.name, parallelism, got.pairs, want.pairs)
				}
				if got.candidates > want.candidates || got.candidates < len(got.pairs) {
					t.Fatalf("seed %d %s: %d candidates on the grid, %d on the scan, %d feasible",
						seed, m.name, got.candidates, want.candidates, len(got.pairs))
				}
			}
		}
	}
}

// TestKernelSelection pins the rule that picks between grid and scan: it
// reads the input only — pair count and finiteness — and the oracle marker.
func TestKernelSelection(t *testing.T) {
	ctx := context.Background()
	tasks, workers := ScaleScenario(64, 64, 3)
	if !NewWorkspace().newPairScan(ctx, tasks, workers, 0, 1, pairPath).grid {
		t.Fatalf("%d pairs: want the grid", len(tasks)*len(workers))
	}
	if NewWorkspace().newPairScan(WithBruteScan(ctx), tasks, workers, 0, 1, pairPath).grid {
		t.Fatal("WithBruteScan: want the scan")
	}
	if NewWorkspace().newPairScan(ctx, tasks[:63], workers, 0, 1, pairPath).grid {
		t.Fatalf("%d pairs: want the scan", 63*len(workers))
	}
	poison := func(edit func(ts []Task, ws []Worker)) bool {
		ts, ws := ScaleScenario(64, 64, 3)
		edit(ts, ws)
		return NewWorkspace().newPairScan(ctx, ts, ws, 0, 1, pairPath).grid
	}
	for name, edit := range map[string]func(ts []Task, ws []Worker){
		"NaN task":         func(ts []Task, ws []Worker) { ts[5].Loc.X = math.NaN() },
		"Inf task":         func(ts []Task, ws []Worker) { ts[5].Loc.Y = math.Inf(-1) },
		"NaN point":        func(ts []Task, ws []Worker) { ws[9].Predicted[2].Y = math.NaN() },
		"Inf point":        func(ts []Task, ws []Worker) { ws[9].Predicted[0].X = math.Inf(1) },
		"Inf detour":       func(ts []Task, ws []Worker) { ws[9].Detour = math.Inf(1) },
		"NaN detour":       func(ts []Task, ws []Worker) { ws[9].Detour = math.NaN() },
		"overflowing span": func(ts []Task, ws []Worker) { ts[0].Loc.X, ts[1].Loc.X = -1.7e308, 1.7e308 },
	} {
		if poison(edit) {
			t.Errorf("%s: want the scan", name)
		}
	}
	// A point set the mode does not read cannot poison it.
	if !poison(func(ts []Task, ws []Worker) { ws[9].Actual[0].X = math.NaN() }) {
		t.Error("NaN in Actual: pairPath should still take the grid")
	}
}

// TestKernelCountersStayNonNegative: candidates counts distinct pairs, so
// pruned = |T|·|W| − candidates cannot go negative however many of a
// worker's points probe the same task.
func TestKernelCountersStayNonNegative(t *testing.T) {
	// Every worker's twelve points sit on top of every task.
	tasks := make([]Task, 80)
	for i := range tasks {
		tasks[i] = Task{ID: i, Loc: geo.Pt(5, 5), Deadline: 50}
	}
	workers := make([]Worker, 80)
	for i := range workers {
		workers[i] = Worker{ID: i, Loc: geo.Pt(5, 5), Detour: 4, Speed: 1, MR: 0.5}
		for j := 0; j < 12; j++ {
			workers[i].Predicted = append(workers[i].Predicted, geo.Pt(5, 5))
		}
	}
	ws := NewWorkspace()
	s := ws.newPairScan(context.Background(), tasks, workers, 0, 1, pairConfident)
	if !s.grid {
		t.Fatal("want the grid")
	}
	found := s.feasible(context.Background(), pairConfident, 0.5, nil, nil)
	if all := len(tasks) * len(workers); found.candidates != all || len(found.pairs) != all {
		t.Fatalf("candidates %d, feasible %d; want %d of each", found.candidates, len(found.pairs), all)
	}
	for _, h := range found.pairs {
		if h.n != 12 {
			t.Fatalf("pair (%d, %d): |B| = %d, want 12", h.task, h.worker, h.n)
		}
	}

	// The exported series, on a batch where the grid does prune.
	tasks, workers = ScaleScenario(300, 300, 5)
	for _, a := range []Assigner{PPI{A: 0.5}, KM{}, Greedy{}} {
		reg := obs.NewRegistry()
		Do(obs.WithRegistry(context.Background(), reg), a, tasks, workers, 0)
		stage := func(name string) int64 {
			return reg.Counter("tamp_assign_edges_total", obs.L("alg", a.Name()), obs.L("stage", name)).Value()
		}
		cand, pruned := stage("candidates"), stage("pruned")
		if cand <= 0 || pruned <= 0 || cand+pruned != int64(len(tasks)*len(workers)) {
			t.Errorf("%s: candidates %d + pruned %d, want positive parts of %d", a.Name(), cand, pruned, len(tasks)*len(workers))
		}
	}
}

// TestKernelSteadyStateAllocs is the allocation gate on the kernel: with a
// warmed Workspace a 2k×2k batch costs PPI and KM a small constant number of
// allocations (the returned plan, the pool's closures, the spans) — none
// that grow with the batch.
func TestKernelSteadyStateAllocs(t *testing.T) {
	tasks, workers := ScaleScenario(2000, 2000, 7)
	for _, a := range []Assigner{PPI{A: 0.5, Parallelism: 1}, KM{Parallelism: 1}} {
		ctx := WithWorkspace(context.Background(), NewWorkspace())
		Do(ctx, a, tasks, workers, 0)
		Do(ctx, a, tasks, workers, 0)
		allocs := testing.AllocsPerRun(5, func() { Do(ctx, a, tasks, workers, 0) })
		t.Logf("%s 2000x2000: %.0f allocs/op", a.Name(), allocs)
		if allocs > 32 {
			t.Errorf("%s: %.0f allocs per warmed 2000x2000 batch, want ≤ 32", a.Name(), allocs)
		}
	}
}

// TestSortPendingAllocFree is the stage-2 satellite gate: the typed sort
// must not allocate once the buffer exists (sort.Slice's closure and
// interface header used to).
func TestSortPendingAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pending := make([]candidate, 512)
	fill := func() {
		for i := range pending {
			pending[i] = candidate{task: rng.Intn(64), worker: rng.Intn(64), conf: rng.Float64()}
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		fill()
		sortPending(pending)
	})
	if allocs != 0 {
		t.Fatalf("sortPending allocates %.1f/op, want 0", allocs)
	}
}
