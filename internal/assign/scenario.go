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
// (tick 30+) never expire at the benchmark tick, so a steady-state Session
// keeps its rows reach-pinned across iterations.
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

// Churner drives per-tick churn against a Session in ScaleScenario's
// distribution: a fraction of the fleet moves (same worker id, fresh
// trajectory) and half that fraction of the tasks turns over (completed
// tasks leave, fresh ones arrive — exercising swap-removal and the KM
// stream's hole handling). The churn benchmarks and tampbench -churn both
// drive it, so "churn P%" means the same workload everywhere.
type Churner struct {
	rng      *rand.Rand
	side     float64
	nextTask int
}

// NewChurner derives the arena side from the session's current fleet and
// continues task ids past the largest one present.
func NewChurner(seed int64, s *Session) *Churner {
	next := 0
	for _, t := range s.Tasks() {
		if t.ID >= next {
			next = t.ID + 1
		}
	}
	return &Churner{
		rng:      rand.New(rand.NewSource(seed)),
		side:     10 * math.Sqrt(float64(len(s.Workers())+1)),
		nextTask: next,
	}
}

// Tick applies one tick of churn at the given fraction (0 = quiescent).
func (c *Churner) Tick(s *Session, frac float64) {
	workers := s.Workers()
	moves := int(frac * float64(len(workers)))
	for k := 0; k < moves; k++ {
		id := workers[c.rng.Intn(len(workers))].ID
		s.UpsertWorker(scaleWorker(c.rng, id, c.side))
	}
	turnover := int(frac * float64(len(s.Tasks())) / 2)
	for k := 0; k < turnover; k++ {
		tasks := s.Tasks()
		if len(tasks) == 0 {
			break
		}
		s.RemoveTask(tasks[c.rng.Intn(len(tasks))].ID)
		s.UpsertTask(scaleTask(c.rng, c.nextTask, c.side))
		c.nextTask++
	}
}
