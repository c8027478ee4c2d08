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
	if finiteWorkers(workers, mode) && s.buildGrid() {
		s.kernel = kernelGrid
	}
	return s, s.kernel == kernelGrid
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
		if ws.newPairScan(ctx, tasks, workers, tick, 1, pairConfident).kernel == kernelGrid {
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
				if !pairsIdentical(got, want) {
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

// TestKernelSelection pins the rule that picks the path: it reads the input
// only — pair count, finiteness and mode — and the oracle marker. A finite
// batch takes the grid from gridMinPairs pairs on and the boxed scan below
// (pairLoc the exhaustive one); anything non-finite, and WithBruteScan,
// takes the exhaustive scan.
func TestKernelSelection(t *testing.T) {
	ctx := context.Background()
	kernelOf := func(ctx context.Context, tasks []Task, workers []Worker, mode pairMode) pairKernel {
		return NewWorkspace().newPairScan(ctx, tasks, workers, 0, 1, mode).kernel
	}
	name := [...]string{kernelScan: "exhaustive scan", kernelBox: "boxed scan", kernelGrid: "grid"}
	tasks, workers := ScaleScenario(64, 64, 3)
	small, smallW := ScaleScenario(45, 24, 3)
	const unpoisoned = pairKernel(255)
	for _, tc := range []struct {
		name      string
		got, want pairKernel
	}{
		{"4096 pairs", kernelOf(ctx, tasks, workers, pairPath), kernelGrid},
		{"4096 pairs, confident", kernelOf(ctx, tasks, workers, pairConfident), kernelGrid},
		{"4096 pairs, loc", kernelOf(ctx, tasks, workers, pairLoc), kernelGrid},
		{"4096 pairs, WithBruteScan", kernelOf(WithBruteScan(ctx), tasks, workers, pairPath), kernelScan},
		{"4032 pairs", kernelOf(ctx, tasks[:63], workers, pairPath), kernelBox},
		{"24x45, path", kernelOf(ctx, small, smallW, pairPath), kernelBox},
		{"24x45, confident", kernelOf(ctx, small, smallW, pairConfident), kernelBox},
		{"24x45, serve", kernelOf(ctx, small, smallW, pairServe), kernelBox},
		{"24x45, loc", kernelOf(ctx, small, smallW, pairLoc), kernelScan},
		{"24x45, WithBruteScan", kernelOf(WithBruteScan(ctx), small, smallW, pairConfident), kernelScan},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: got the %s, want the %s", tc.name, name[tc.got], name[tc.want])
		}
	}
	for _, tc := range []struct {
		name string
		edit func(ts []Task, ws []Worker)
		want pairKernel // at both sizes; the size decides when unpoisoned
	}{
		{"NaN task", func(ts []Task, ws []Worker) { ts[5].Loc.X = math.NaN() }, kernelScan},
		{"Inf task", func(ts []Task, ws []Worker) { ts[5].Loc.Y = math.Inf(-1) }, kernelScan},
		{"NaN point", func(ts []Task, ws []Worker) { ws[9].Predicted[2].Y = math.NaN() }, kernelScan},
		{"Inf point", func(ts []Task, ws []Worker) { ws[9].Predicted[0].X = math.Inf(1) }, kernelScan},
		{"Inf detour", func(ts []Task, ws []Worker) { ws[9].Detour = math.Inf(1) }, kernelScan},
		{"NaN detour", func(ts []Task, ws []Worker) { ws[9].Detour = math.NaN() }, kernelScan},
		// Nor can a tick: the grid never reads one, and the box widens
		// pairServe's reach where float64 would round it.
		{"deadline past 2^52", func(ts []Task, ws []Worker) { ts[3].Deadline = min(1<<60, math.MaxInt) }, unpoisoned},
		// The grid cannot span ±1.7e308; the box test can.
		{"overflowing span", func(ts []Task, ws []Worker) { ts[0].Loc.X, ts[1].Loc.X = -1.7e308, 1.7e308 }, kernelBox},
		// A point set the mode does not read cannot poison it.
		{"NaN in Actual", func(ts []Task, ws []Worker) { ws[9].Actual[0].X = math.NaN() }, unpoisoned},
		// Nor can a speed: every predicate stays within the box radius at any.
		{"NaN speed", func(ts []Task, ws []Worker) { ws[9].Speed = math.NaN() }, unpoisoned},
		{"-Inf speed", func(ts []Task, ws []Worker) { ws[9].Speed = math.Inf(-1) }, unpoisoned},
	} {
		for _, n := range []int{64, 63} {
			ts, ws := ScaleScenario(64, 64, 3)
			tc.edit(ts, ws)
			want := tc.want
			if want == unpoisoned {
				want = map[int]pairKernel{64: kernelGrid, 63: kernelBox}[n]
			}
			if got := kernelOf(ctx, ts[:n], ws, pairPath); got != want {
				t.Errorf("%s, %d tasks: got the %s, want the %s", tc.name, n, name[got], name[want])
			}
		}
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
	if s.kernel != kernelGrid {
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
// that grow with the batch. A 24×45 batch, the size of a simulator tick's,
// takes the boxed scan: cycling over 64 distinct warmed batches, it costs
// no allocation more than the exhaustive scan of the same batches.
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

	type batch struct {
		tasks   []Task
		workers []Worker
	}
	small := make([]batch, 64)
	for i := range small {
		tasks, workers := ScaleScenario(45, 24, int64(i))
		for j := range tasks {
			tasks[j].Deadline = 1 + (i+j)%20
		}
		small[i] = batch{tasks, workers}
	}
	if k := NewWorkspace().newPairScan(context.Background(), small[0].tasks, small[0].workers, 0, 1, pairPath).kernel; k != kernelBox {
		t.Fatalf("24x45: kernel %d, want the boxed scan", k)
	}
	for _, a := range []Assigner{PPI{A: 0.5, Parallelism: 1}, KM{Parallelism: 1}} {
		perBatch := func(ctx context.Context) float64 {
			ctx = WithWorkspace(ctx, NewWorkspace())
			for _, b := range small {
				Do(ctx, a, b.tasks, b.workers, 0)
			}
			k := 0
			return testing.AllocsPerRun(2*len(small), func() {
				b := &small[k%len(small)]
				k++
				Do(ctx, a, b.tasks, b.workers, 0)
			})
		}
		boxed, scanned := perBatch(context.Background()), perBatch(WithBruteScan(context.Background()))
		t.Logf("%s 24x45: %.0f allocs/op boxed, %.0f scanned", a.Name(), boxed, scanned)
		if boxed > scanned {
			t.Errorf("%s: %.0f allocs per warmed 24x45 batch on the boxed scan, %.0f on the exhaustive one", a.Name(), boxed, scanned)
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
