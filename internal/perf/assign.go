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

// measureAssignIncremental times one steady-state Session tick at the given
// churn percentage. The session and churner live outside the measure closure,
// so testing.Benchmark's b.N escalations keep driving the same warmed session
// rather than rebuilding it; the timer excludes the churn generation itself,
// matching BenchmarkAssignIncremental.
func measureAssignIncremental(name string, nT, nW, churnPct int) Result {
	tasks, workers := assign.ScaleScenario(nT, nW, 7)
	s := assign.NewSession(assign.PPI{A: 0.5})
	for i := range workers {
		s.UpsertWorker(workers[i])
	}
	for i := range tasks {
		s.UpsertTask(tasks[i])
	}
	ctx := context.Background()
	s.Assign(ctx, 0) // cold tick: build index, caches, checkpoints
	ch := assign.NewChurner(99, s)
	frac := float64(churnPct) / 100
	return measure(name, func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ch.Tick(s, frac)
			b.StartTimer()
			s.Assign(ctx, 0)
		}
	})
}

// RunAssignIncremental benchmarks the incremental Session at each scale and
// churn level. With big set it appends one 100000x100000 low-churn datapoint
// — artifact runs only; the regression guard tolerates names present on one
// side, so CI never pays for it.
func RunAssignIncremental(churns []int, big bool) []Result {
	if len(churns) == 0 {
		churns = []int{0, 1, 10}
	}
	var results []Result
	for _, s := range assignScales {
		for _, churn := range churns {
			results = append(results, measureAssignIncremental(
				fmt.Sprintf("AssignIncremental_%s_churn%d", s.name, churn), s.nT, s.nW, churn))
		}
	}
	if big {
		results = append(results, measureAssignIncremental(
			"AssignIncremental_100000x100000_churn1", 100000, 100000, 1))
	}
	return results
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
