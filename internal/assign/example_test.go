package assign_test

import (
	"context"
	"fmt"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/geo"
)

// ExampleMaxWeightMatching shows the KM subroutine on a tiny bipartite
// graph: the optimal plan sacrifices the single heaviest edge when the
// total is better without it.
func ExampleMaxWeightMatching() {
	pairs := assign.MaxWeightMatching([]assign.Edge{
		{Task: 0, Worker: 0, Weight: 5},
		{Task: 0, Worker: 1, Weight: 6}, // heaviest, but blocks the rest
		{Task: 1, Worker: 1, Weight: 5},
	})
	var total float64
	for _, p := range pairs {
		fmt.Printf("task %d -> worker %d\n", p.Task, p.Worker)
		total += p.Weight
	}
	fmt.Printf("total weight %.0f\n", total)
	// Output:
	// task 0 -> worker 0
	// task 1 -> worker 1
	// total weight 10
}

// ExamplePPI_Assign runs one PPI batch: the task sits on the worker's
// predicted route, so the confident stage matches it immediately.
func ExamplePPI_Assign() {
	worker := assign.Worker{
		ID: 7, Loc: geo.Pt(0, 0), Detour: 10, Speed: 1, MR: 0.8,
		Predicted: []geo.Point{geo.Pt(1, 0), geo.Pt(2, 0), geo.Pt(3, 0)},
	}
	tasks := []assign.Task{{ID: 0, Loc: geo.Pt(2, 0), Deadline: 20}}
	pairs := assign.PPI{A: 1}.Assign(context.Background(), tasks, []assign.Worker{worker}, 0)
	fmt.Println(len(pairs), "assignment; worker", pairs[0].Worker)
	// Output: 1 assignment; worker 0
}
