package perf

import (
	"context"
	"fmt"
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
// the package's equivalence tests — is what the numbers show.
func assignSpecs() []Spec {
	var specs []Spec
	for _, n := range []int{500, 2000, 5000} {
		tasks, workers := assign.ScaleScenario(n, n, 7)
		for _, a := range []assign.Assigner{assign.PPI{A: 0.5}, assign.KM{}} {
			specs = append(specs, Spec{
				Name:   fmt.Sprintf("Assign%s_%dx%d", a.Name(), n, n),
				Run:    assignBatch(context.Background(), a, tasks, workers),
				Before: assignBatch(assign.WithBruteScan(context.Background()), a, tasks, workers),
			})
		}
	}
	return specs
}

// assignBatch assigns one batch per iteration through its own workspace,
// warm after the first.
func assignBatch(ctx context.Context, a assign.Assigner, tasks []assign.Task, workers []assign.Worker) func(b *testing.B) {
	ctx = assign.WithWorkspace(ctx, assign.NewWorkspace())
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			assign.Do(ctx, a, tasks, workers, 0)
		}
	}
}
