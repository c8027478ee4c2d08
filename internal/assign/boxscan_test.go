package assign

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/spatialcrowd/tamp/internal/geo"
)

// pairsIdentical reports whether two query results hold the same pairs in
// the same order with the same |B| and the same dist bits, and the same
// task offsets.
func pairsIdentical(got, want feasiblePairs) bool {
	if len(got.pairs) != len(want.pairs) || len(got.start) != len(want.start) {
		return false
	}
	for i, g := range got.pairs {
		w := want.pairs[i]
		if g.task != w.task || g.worker != w.worker || g.n != w.n || math.Float64bits(g.dist) != math.Float64bits(w.dist) {
			return false
		}
	}
	for i := range got.start {
		if got.start[i] != want.start[i] {
			return false
		}
	}
	return true
}

// smallBatch generates one finite batch under gridMinPairs for the boxed
// scan: deadlines from tick − 1 to tick + 20, some around ticks past 2⁵²
// that float64 rounds, speeds and detours that
// include 0 and negative values, empty point sets, Actual sets off
// their forecast, excluded workers, coordinates far from the origin, and
// rim tasks. Half the workers walk up and to the right, so their first
// point is the lower-left corner of their box; a rim task sits exactly at
// reachCap − a from that point (for each a of kernelModes), or from the
// first true point at the largest distance ServeDist accepts, on the side
// facing away from the box, where the box test is as tight as the
// predicate. rim marks the rim tasks.
func smallBatch(rng *rand.Rand) (tasks []Task, workers []Worker, tick int, rim []bool) {
	tick = rng.Intn(6)
	if rng.Intn(6) == 0 { // ticks float64 rounds: ServeDist compares them as floats
		tick += []int{min(1<<60, math.MaxInt), max(-1<<60, math.MinInt), maxExactTick - 10}[rng.Intn(3)] + rng.Intn(512)
	}
	origin := [...]float64{0, 0, 0, 100, 1e4, -1e6}[rng.Intn(6)]
	nW, nT := 1+rng.Intn(30), 1+rng.Intn(60)
	side := 10 + rng.Float64()*40
	coord := func() float64 { return origin + rng.Float64()*side }

	workers = make([]Worker, nW)
	corner := make([]bool, nW) // the first point bounds both sets from below
	for i := range workers {
		walk := func(x, y float64, steps int, up bool) []geo.Point {
			pts := make([]geo.Point, steps)
			for j := range pts {
				if up {
					x, y = x+rng.Float64()*2, y+rng.Float64()*2
				} else {
					x, y = x+rng.NormFloat64()*1.5, y+rng.NormFloat64()*1.5
				}
				pts[j] = geo.Pt(x, y)
			}
			return pts
		}
		x, y := coord(), coord()
		corner[i] = rng.Intn(2) == 0
		steps := rng.Intn(11) // 0..10
		pred := walk(x, y, steps, corner[i])
		act := make([]geo.Point, steps)
		shift := 0.0
		if rng.Intn(3) == 0 { // a forecast that misses the true path
			shift = 3 + rng.Float64()*6
		}
		for j, p := range pred {
			act[j] = geo.Pt(p.X+shift+rng.Float64()*0.5, p.Y+shift+rng.Float64()*0.5)
		}
		if !corner[i] {
			for j := range act {
				act[j] = geo.Pt(act[j].X+rng.NormFloat64(), act[j].Y+rng.NormFloat64())
			}
		}
		detour := rng.Float64() * 12
		switch rng.Intn(10) {
		case 0:
			detour = 0
		case 1:
			detour = -rng.Float64() * 4
		}
		speed := rng.Float64() * 3
		switch rng.Intn(12) {
		case 0, 1:
			speed = 0
		case 2: // ServeDist stands such a worker still
			speed = -speed
		}
		workers[i] = Worker{ID: i, Loc: geo.Pt(x, y), Detour: detour, Speed: speed, Predicted: pred, Actual: act, MR: rng.Float64()}
	}

	tasks, rim = make([]Task, nT), make([]bool, nT)
	for i := range tasks {
		t := Task{ID: i, Loc: geo.Pt(coord(), coord()), Deadline: tick - 1 + rng.Intn(22)}
		for w := range workers {
			if rng.Intn(20) == 0 {
				t.Excluded = append(t.Excluded, w)
			}
		}
		if wi := rng.Intn(nW); rng.Intn(2) == 0 && len(workers[wi].Predicted) > 0 {
			w := &workers[wi]
			from, r := w.Predicted[0], reachCap(w, &t, tick)-kernelModes[rng.Intn(len(kernelModes))].a
			if rng.Intn(4) == 0 { // ServeDist's rim: reached at tick + 1
				from, r = w.Actual[0], math.Min(w.Detour/2, w.Speed*float64(t.Deadline-tick-1))
			}
			th := rng.Float64() * 2 * math.Pi
			if corner[wi] {
				th = math.Pi + rng.Float64()*math.Pi/2
			}
			if r >= 0 {
				t.Loc = geo.Pt(from.X+r*math.Cos(th), from.Y+r*math.Sin(th))
				rim[i] = true
			}
		}
		tasks[i] = t
	}
	return tasks, workers, tick, rim
}

// TestBoxedScanMatchesBrute holds the boxed scan to the exhaustive oracle on
// small batches: every kernelModes query, with and without skip lists, at
// parallelism 1 and 8, on a workspace reused across batches, must return
// the oracle's pairs, |B|, dist bits and task offsets, from fewer or as
// many candidates, never fewer than it keeps.
func TestBoxedScanMatchesBrute(t *testing.T) {
	ws := NewWorkspace()
	var rimFeasible, pruned int // summed over modes
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tasks, workers, tick, rim := smallBatch(rng)
		var skipT, skipW []bool
		if seed%2 == 1 {
			skipT, skipW = make([]bool, len(tasks)), make([]bool, len(workers))
			for i := range skipT {
				skipT[i] = rng.Intn(4) == 0
			}
			for i := range skipW {
				skipW[i] = rng.Intn(4) == 0
			}
		}
		for _, m := range kernelModes {
			ctx := context.Background()
			brute := NewWorkspace().newPairScan(WithBruteScan(ctx), tasks, workers, tick, 1, m.mode)
			want := brute.feasible(ctx, m.mode, m.a, skipT, skipW)
			wantKernel := kernelBox
			if m.mode == pairLoc {
				wantKernel = kernelScan
			}
			for _, parallelism := range []int{1, 8} {
				s := ws.newPairScan(ctx, tasks, workers, tick, parallelism, m.mode)
				if s.kernel != wantKernel {
					t.Fatalf("seed %d %s: kernel %d, want %d", seed, m.name, s.kernel, wantKernel)
				}
				got := s.feasible(ctx, m.mode, m.a, skipT, skipW)
				if !pairsIdentical(got, want) {
					t.Fatalf("seed %d %s par %d: boxed scan differs from the oracle\nboxed: %v %v\nscan:  %v %v",
						seed, m.name, parallelism, got.pairs, got.start, want.pairs, want.start)
				}
				if got.candidates > want.candidates || got.candidates < len(got.pairs) {
					t.Fatalf("seed %d %s: %d candidates boxed, %d scanned, %d feasible",
						seed, m.name, got.candidates, want.candidates, len(got.pairs))
				}
				if parallelism == 1 {
					pruned += want.candidates - got.candidates
				}
			}
			for _, h := range want.pairs {
				if rim[h.task] {
					rimFeasible++
				}
			}
		}
	}
	if pruned == 0 || rimFeasible == 0 {
		t.Fatalf("pruned %d pairs, %d feasible rim pairs: the suite does not exercise the box", pruned, rimFeasible)
	}
}

// FuzzPairScanMatchesBrute compares the kernel the input selects with the
// exhaustive scan on a three-task, two-worker batch built from the fuzzed
// coordinates, deadline, speed, detour and a — ±Inf, NaN and −0 included —
// for every query mode. One task sits at reachCap − a from the first
// worker's first point, so the rim is reached from any input.
func FuzzPairScanMatchesBrute(f *testing.F) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	f.Add(1.0, 2.0, 0.0, 0.0, 3.0, 4.0, 6.0, 1.0, 0.5, int16(3), int16(0))
	f.Add(0.0, 0.0, negZero, negZero, 0.0, 0.0, negZero, negZero, negZero, int16(0), int16(0))
	f.Add(5.0, 5.0, 1.0, 1.0, 2.0, 2.0, 4.0, 0.0, -1.0, int16(-1), int16(0))
	f.Add(nan, 1.0, 0.0, 0.0, 1.0, 1.0, 4.0, 1.0, 0.0, int16(5), int16(2))
	f.Add(1.0, 1.0, inf, 0.0, 1.0, 1.0, 4.0, 1.0, 0.0, int16(5), int16(2))
	f.Add(1.0, 1.0, 0.0, 0.0, 1.0, 1.0, inf, 1.0, 0.0, int16(5), int16(2))
	f.Add(1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 4.0, -inf, 0.0, int16(5), int16(2))
	f.Add(1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 4.0, nan, 0.5, int16(5), int16(2))
	f.Add(1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 4.0, 1.0, nan, int16(5), int16(2))
	f.Add(1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 4.0, 1.0, -inf, int16(5), int16(2))
	f.Add(1e300, -1e300, 1e-300, 0.0, 3e-160, 1.0, 1e300, 1e-300, 0.0, int16(1), int16(0))
	f.Fuzz(func(t *testing.T, tx, ty, px, py, qx, qy, detour, speed, a float64, deadline, tick int16) {
		w0 := Worker{ID: 0, Loc: geo.Pt(px, py), Detour: detour, Speed: speed,
			Predicted: []geo.Point{geo.Pt(px, py), geo.Pt(qx, qy)}, Actual: []geo.Point{geo.Pt(qx, qy), geo.Pt(px, py)}}
		w1 := Worker{ID: 1, Loc: geo.Pt(qx, qy), Detour: math.Abs(detour), Speed: speed / 2,
			Predicted: []geo.Point{geo.Pt(qx, qy)}, Actual: []geo.Point{geo.Pt(tx, py)}}
		tasks := []Task{
			{ID: 0, Loc: geo.Pt(tx, ty), Deadline: int(deadline)},
			{ID: 1, Loc: geo.Pt(qx, ty), Deadline: int(deadline) + 1, Excluded: []int{1}},
		}
		rim := Task{ID: 2, Deadline: int(deadline)}
		r := reachCap(&w0, &rim, int(tick)) - a
		if !finite(r) { // keep a finite batch finite
			r = 0
		}
		rim.Loc = geo.Pt(px-r*0.6, py-r*0.8)
		tasks = append(tasks, rim)
		workers := []Worker{w0, w1}
		for _, m := range kernelModes {
			qa := m.a
			if m.mode == pairConfident {
				qa = a
			}
			ctx := context.Background()
			brute := NewWorkspace().newPairScan(WithBruteScan(ctx), tasks, workers, int(tick), 1, m.mode)
			want := brute.feasible(ctx, m.mode, qa, nil, nil)
			s := NewWorkspace().newPairScan(ctx, tasks, workers, int(tick), 1, m.mode)
			got := s.feasible(ctx, m.mode, qa, nil, nil)
			if !pairsIdentical(got, want) {
				t.Fatalf("%s a=%g: kernel %v %v, oracle %v %v", m.name, qa, got.pairs, got.start, want.pairs, want.start)
			}
		}
	})
}
