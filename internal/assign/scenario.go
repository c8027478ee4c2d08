package assign

import (
	"math"
	"math/rand"

	"github.com/spatialcrowd/tamp/internal/geo"
)

// ScaleScenario generates a reproducible assignment batch of nTasks tasks and
// nWorkers workers scattered over a square whose side grows with √nWorkers,
// so spatial density — and with it each task's true candidate count — stays
// roughly constant across scales. Exhaustive graph construction is then
// Θ(|T|·|W|) while the task grid visits O(|T|·density) pairs, which is
// exactly the regime the AssignPPI/AssignKM scale benchmarks and the perf
// harness measure. Every worker walks a short random trajectory (predicted
// and a noisy actual), with mixed detour budgets, speeds, and matching rates
// so all three PPI stages see traffic.
func ScaleScenario(nTasks, nWorkers int, seed int64) ([]Task, []Worker) {
	rng := rand.New(rand.NewSource(seed))
	side := 10 * math.Sqrt(float64(nWorkers)+1)
	tasks := make([]Task, nTasks)
	for i := range tasks {
		tasks[i] = scaleTask(rng, i, side)
	}
	workers := make([]Worker, nWorkers)
	for i := range workers {
		workers[i] = scaleWorker(rng, i, side)
	}
	return tasks, workers
}

// scaleTask draws one task from ScaleScenario's distribution. The deadlines
// (tick 30+) never expire at the benchmark tick.
func scaleTask(rng *rand.Rand, id int, side float64) Task {
	return Task{
		ID:       id,
		Loc:      geo.Pt(rng.Float64()*side, rng.Float64()*side),
		Deadline: 30 + rng.Intn(30),
	}
}

// scaleWorker draws one worker from ScaleScenario's distribution.
func scaleWorker(rng *rand.Rand, id int, side float64) Worker {
	x, y := rng.Float64()*side, rng.Float64()*side
	steps := 8 + rng.Intn(5)
	pred := make([]geo.Point, steps)
	act := make([]geo.Point, steps)
	px, py := x, y
	for j := 0; j < steps; j++ {
		px += rng.Float64()*2 - 1
		py += rng.Float64()*2 - 1
		pred[j] = geo.Pt(px, py)
		act[j] = geo.Pt(px+rng.Float64()-0.5, py+rng.Float64()-0.5)
	}
	return Worker{
		ID:        id,
		Loc:       geo.Pt(x, y),
		Detour:    4 + rng.Float64()*6,
		Speed:     0.5 + rng.Float64(),
		Predicted: pred,
		Actual:    act,
		MR:        rng.Float64(),
	}
}
