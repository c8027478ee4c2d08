package perf

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/spatialcrowd/tamp/internal/assign"
)

var assignSuite = Suite{
	Name:  "assign",
	Note:  "Batch assignment costs (candidate-pair kernel + sparse KM); baseline is the exhaustive all-pairs scan (assign.WithBruteScan) — compare current against it.",
	Specs: assignSpecs,
}

// assignSpecs time PPI and plain KM on square batches whose area grows with
// the worker count, so spatial density stays constant and the task grid's
// advantage over the all-pairs scan — the before-side, and the oracle of
// the package's equivalence tests — is what the numbers show. The 24×45
// rows are batches the size of a simulator tick's, under gridMinPairs, where
// the boxed scan runs: they cycle over 64 seeded batches whose tasks fall
// due 1–20 ticks ahead, so no branch pattern repeats from one op to the
// next.
func assignSpecs() []Spec {
	var specs []Spec
	add := func(name string, a assign.Assigner, batches []batch) {
		specs = append(specs, Spec{
			Name:   name,
			Run:    assignBatches(context.Background(), a, batches),
			Before: assignBatches(assign.WithBruteScan(context.Background()), a, batches),
		})
	}
	for _, n := range []int{500, 2000, 5000} {
		tasks, workers := assign.ScaleScenario(n, n, 7)
		for _, a := range []assign.Assigner{assign.PPI{A: 0.5}, assign.KM{}} {
			add(fmt.Sprintf("Assign%s_%dx%d", a.Name(), n, n), a, []batch{{tasks, workers}})
		}
	}
	small := make([]batch, 64)
	for i := range small {
		tasks, workers := assign.ScaleScenario(45, 24, int64(100+i))
		rng := rand.New(rand.NewSource(int64(i)))
		for j := range tasks {
			tasks[j].Deadline = 1 + rng.Intn(20)
		}
		small[i] = batch{tasks, workers}
	}
	for _, a := range []assign.Assigner{assign.PPI{A: 0.5}, assign.KM{}} {
		add(fmt.Sprintf("Assign%s_24x45", a.Name()), a, small)
	}
	return specs
}

// batch is one assignment batch at tick 0.
type batch struct {
	tasks   []assign.Task
	workers []assign.Worker
}

// assignBatches assigns one batch per iteration, the next of batches in
// turn, through its own workspace, warm after the first round.
func assignBatches(ctx context.Context, a assign.Assigner, batches []batch) func(b *testing.B) {
	ctx = assign.WithWorkspace(ctx, assign.NewWorkspace())
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bt := &batches[i%len(batches)]
			assign.Do(ctx, a, bt.tasks, bt.workers, 0)
		}
	}
}
