// Package experiments reproduces every table and figure of the paper's
// evaluation (§IV and Appendix C) on the synthetic workloads: the
// clustering ablations (Tables IV and VI), the seq_in/seq_out sweeps
// (Tables V and VII), and the task assignment sweeps over worker detour,
// task count, and task validity (Figs. 6–11). Each experiment is a plain
// function returning typed rows, shared by cmd/tampbench and the root
// benchmark suite.
package experiments

import (
	"fmt"

	"github.com/spatialcrowd/tamp/internal/dataset"
)

// Scale bounds an experiment's size so the suite can run both as a quick
// smoke pass and as the full paper-shaped reproduction.
type Scale struct {
	Name        string
	NumWorkers  int
	NewWorkers  int
	TrainDays   int
	TestDays    int
	TicksPerDay int
	// TaskUnit is what the paper's "1K tasks" maps to; the Figs. 7/10
	// x-axis becomes {1,2,3,4,5}·TaskUnit.
	TaskUnit  int
	Hidden    int
	MetaIters int
	// GGPSO search effort.
	Population, Generations int
	Seed                    int64
	// Parallelism bounds every worker pool the experiment spawns: meta
	// training batches, per-worker adaptation, simulation prediction, PPI/KM
	// edge construction, and multi-seed fan-out (0 = GOMAXPROCS). Rows are
	// bit-identical at every level.
	Parallelism int
}

// Smoke is the CI-gate scale of the benchmark matrix: small enough that the
// full generators × assigners cross-product (training included) finishes in
// well under a minute, large enough that every assigner serves tasks and the
// budget/window mechanics engage.
var Smoke = Scale{
	Name:        "smoke",
	NumWorkers:  8,
	NewWorkers:  1,
	TrainDays:   2,
	TestDays:    1,
	TicksPerDay: 48,
	TaskUnit:    40,
	Hidden:      6,
	MetaIters:   4,
	Population:  12,
	Generations: 10,
	Seed:        1,
}

// Quick is the smoke-test scale: seconds per experiment.
var Quick = Scale{
	Name:        "quick",
	NumWorkers:  12,
	NewWorkers:  2,
	TrainDays:   2,
	TestDays:    1,
	TicksPerDay: 60,
	TaskUnit:    120,
	Hidden:      8,
	MetaIters:   8,
	Population:  20,
	Generations: 25,
	Seed:        1,
}

// Full is the paper-shaped scale: minutes per experiment, large enough for
// the orderings and trends of §IV to emerge.
var Full = Scale{
	Name:        "full",
	NumWorkers:  40,
	NewWorkers:  4,
	TrainDays:   4,
	TestDays:    2,
	TicksPerDay: 120,
	TaskUnit:    600,
	Hidden:      16,
	MetaIters:   25,
	Population:  40,
	Generations: 60,
	Seed:        1,
}

// ScaleNamed returns the scale called name: smoke, quick or full.
func ScaleNamed(name string) (Scale, error) {
	for _, sc := range []Scale{Smoke, Quick, Full} {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (want smoke, quick or full)", name)
}

// params builds dataset parameters at this scale with the Table III
// defaults (3 task units, valid time [3,4], detour 6 km).
func (sc Scale) params(kind dataset.Kind) dataset.Params {
	p := dataset.Defaults(kind)
	p.Seed = sc.Seed
	p.NumWorkers = sc.NumWorkers
	p.NewWorkers = sc.NewWorkers
	p.TrainDays = sc.TrainDays
	p.TestDays = sc.TestDays
	p.TicksPerDay = sc.TicksPerDay
	p.NumTestTasks = 3 * sc.TaskUnit
	return p
}
