package perf

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/spatialcrowd/tamp/internal/assign"
)

// assignScales mirrors the BenchmarkAssignPPI/BenchmarkAssignKM sub-benchmark
// shapes (internal/assign/bench_test.go): square batches whose area grows
// with the worker count, so spatial density stays constant and the task
// grid's advantage over the all-pairs scan is what the numbers show.
var assignScales = []struct {
	name   string
	nT, nW int
}{
	{"500x500", 500, 500},
	{"2000x2000", 2000, 2000},
	{"5000x5000", 5000, 5000},
}

const assignNote = "Batch assignment costs (candidate-pair kernel + sparse KM); baseline is the exhaustive all-pairs scan (assign.WithBruteScan) — compare current against it."

func measureAssign(ctx context.Context, name string, a assign.Assigner, nT, nW int) Result {
	tasks, workers := assign.ScaleScenario(nT, nW, 7)
	ctx = assign.WithWorkspace(ctx, assign.NewWorkspace())
	return measure(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			assign.Do(ctx, a, tasks, workers, 0)
		}
	})
}

// RunAssign executes the assignment benchmark suite on the production path
// (the candidate-pair kernel's task grid): PPI and plain KM at each scale.
func RunAssign() []Result {
	return runAssign(context.Background())
}

// RunAssignOracle executes the same suite under assign.WithBruteScan — the
// all-pairs scan the repo's equivalence tests hold up as the oracle. It
// seeds the Baseline of a fresh BENCH_assign.json so the committed file
// records grid-vs-scan, not grid-vs-grid.
func RunAssignOracle() []Result {
	return runAssign(assign.WithBruteScan(context.Background()))
}

func runAssign(ctx context.Context) []Result {
	var results []Result
	for _, s := range assignScales {
		results = append(results,
			measureAssign(ctx, fmt.Sprintf("AssignPPI_%s", s.name), assign.PPI{A: 0.5}, s.nT, s.nW),
			measureAssign(ctx, fmt.Sprintf("AssignKM_%s", s.name), assign.KM{}, s.nT, s.nW),
		)
	}
	return results
}

// WriteAssignJSON measures the production suite and writes path in the same
// schema as BENCH_nn.json. An existing file keeps its Baseline (and Note);
// a fresh file additionally runs the brute-scan oracle and records it as
// the Baseline, so the speedup the task grid buys is pinned in the artifact.
func WriteAssignJSON(path string) (File, error) {
	return WriteAssignJSONWith(path, RunAssign())
}

// WriteAssignJSONWith is WriteAssignJSON for an already-measured run, so one
// suite execution can feed both the regression check and the artifact file.
func WriteAssignJSONWith(path string, cur []Result) (File, error) {
	f := File{
		Note:   assignNote,
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
	}
	if prev, err := LoadFile(path); err == nil && len(prev.Baseline) > 0 {
		f.Baseline = prev.Baseline
		if prev.Note != "" {
			f.Note = prev.Note
		}
	}
	if f.Baseline == nil {
		f.Baseline = RunAssignOracle()
	}
	f.Current = cur
	return f, writeFile(path, f)
}
