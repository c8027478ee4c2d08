package tamp

// The benchmark suite regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4) and adds ablation benches for the design
// choices the paper highlights. Benchmarks run at the quick experiment
// scale so `go test -bench=. -benchmem` terminates in minutes; use
// cmd/tampbench -scale full for paper-shaped runs.

import (
	"context"
	"io"
	"runtime"
	"testing"
	"time"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/experiments"
	"github.com/spatialcrowd/tamp/internal/platform"
	"github.com/spatialcrowd/tamp/internal/predict"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Registry[id]
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), experiments.Quick, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Table IV: clustering algorithm × factor ablation, workload 1.
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// Table V: seq_in / seq_out sweep, workload 1.
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// Table VI: clustering algorithm × factor ablation, workload 2.
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }

// Table VII: seq_in / seq_out sweep, workload 2.
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }

// Fig. 6: worker detour sweep, workload 1.
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// Fig. 7: task count sweep, workload 1.
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// Fig. 8: valid time sweep, workload 1.
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// Fig. 9: worker detour sweep, workload 2.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// Fig. 10: task count sweep, workload 2.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// Fig. 11: valid time sweep, workload 2.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// benchWorkload prepares a fixed workload + trained predictors shared by
// the ablation benches.
func benchSetup(b *testing.B, weighted bool) (*dataset.Workload, *predict.Result) {
	b.Helper()
	p := dataset.Defaults(dataset.Workload1)
	p.NumWorkers = 12
	p.NewWorkers = 2
	p.TrainDays = 2
	p.TestDays = 1
	p.TicksPerDay = 60
	p.NumTestTasks = 300
	p.NumPOIs = 80
	w := dataset.Generate(p)
	res, err := predict.Train(context.Background(), w, predict.Options{
		WeightedLoss: weighted, Hidden: 8, MetaIters: 8, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return w, res
}

func simulateOnce(w *dataset.Workload, res *predict.Result, a assign.Assigner) platform.Metrics {
	run := platform.Run{Workload: w, Models: res.Models, Assigner: a}
	m, err := run.Simulate(context.Background())
	if err != nil {
		panic(err)
	}
	return m
}

// benchPair runs the same closure at Parallelism=1 and Parallelism=0 (all
// cores) as sub-benchmarks and reports the parallel run's speedup over the
// sequential one plus the core count it had available. On a single-core
// machine the speedup hovers around 1; the determinism contract guarantees
// both runs produce identical results regardless.
func benchPair(b *testing.B, run func(parallelism int)) {
	b.Helper()
	var seqNs float64
	b.Run("par=1", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			run(1)
		}
		seqNs = float64(time.Since(start).Nanoseconds()) / float64(b.N)
	})
	b.Run("par=all", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			run(0)
		}
		parNs := float64(time.Since(start).Nanoseconds()) / float64(b.N)
		if seqNs > 0 && parNs > 0 {
			b.ReportMetric(seqNs/parNs, "speedup")
		}
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "procs")
	})
}

// BenchmarkTrainParallel measures the offline stage (meta-training +
// per-worker adaptation + evaluation) sequentially vs on every core.
func BenchmarkTrainParallel(b *testing.B) {
	p := dataset.Defaults(dataset.Workload1)
	p.NumWorkers = 12
	p.NewWorkers = 2
	p.TrainDays = 2
	p.TestDays = 1
	p.TicksPerDay = 60
	p.NumTestTasks = 300
	p.NumPOIs = 80
	w := dataset.Generate(p)
	benchPair(b, func(parallelism int) {
		_, err := predict.Train(context.Background(), w, predict.Options{
			WeightedLoss: true, Hidden: 8, MetaIters: 8, Seed: 1,
			Parallelism: parallelism,
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkSimulateParallel measures the online stage (per-batch worker-view
// construction, PPI candidate graphs, daily continual adaptation)
// sequentially vs on every core.
func BenchmarkSimulateParallel(b *testing.B) {
	w, res := benchSetup(b, true)
	benchPair(b, func(parallelism int) {
		run := platform.Run{
			Workload:        w,
			Models:          res.Models,
			Assigner:        assign.PPI{A: predict.DefaultMatchRadius, Parallelism: parallelism},
			DailyAdaptSteps: 2,
			Parallelism:     parallelism,
		}
		if _, err := run.Simulate(context.Background()); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkAblationRadius sweeps the matching-rate radius a of Def. 7,
// reporting the completion and rejection it buys PPI.
func BenchmarkAblationRadius(b *testing.B) {
	w, res := benchSetup(b, true)
	for _, a := range []float64{0.5, 1.5, 3.0} {
		b.Run(radiusName(a), func(b *testing.B) {
			var m platform.Metrics
			for i := 0; i < b.N; i++ {
				m = simulateOnce(w, res, assign.PPI{A: a})
			}
			b.ReportMetric(m.CompletionRate(), "completion")
			b.ReportMetric(m.RejectionRate(), "rejection")
		})
	}
}

func radiusName(a float64) string {
	switch {
	case a < 1:
		return "a=0.5cells"
	case a < 2:
		return "a=1.5cells"
	default:
		return "a=3.0cells"
	}
}

// BenchmarkAblationEpsilon sweeps PPI's second-stage KM batch size ε.
func BenchmarkAblationEpsilon(b *testing.B) {
	w, res := benchSetup(b, true)
	for _, eps := range []int{1, 8, 64} {
		name := map[int]string{1: "eps=1", 8: "eps=8", 64: "eps=64"}[eps]
		b.Run(name, func(b *testing.B) {
			var m platform.Metrics
			for i := 0; i < b.N; i++ {
				m = simulateOnce(w, res, assign.PPI{A: predict.DefaultMatchRadius, Epsilon: eps})
			}
			b.ReportMetric(m.CompletionRate(), "completion")
			b.ReportMetric(m.RejectionRate(), "rejection")
		})
	}
}

// BenchmarkAblationStaging contrasts PPI's confidence-staged matching with
// a single global KM over the same prediction-feasibility graph.
func BenchmarkAblationStaging(b *testing.B) {
	w, res := benchSetup(b, true)
	for _, tc := range []struct {
		name string
		a    assign.Assigner
	}{
		{"staged-PPI", assign.PPI{A: predict.DefaultMatchRadius}},
		{"single-KM", assign.KM{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var m platform.Metrics
			for i := 0; i < b.N; i++ {
				m = simulateOnce(w, res, tc.a)
			}
			b.ReportMetric(m.CompletionRate(), "completion")
			b.ReportMetric(m.RejectionRate(), "rejection")
		})
	}
}

// BenchmarkAblationLoss contrasts the task-assignment-oriented loss with
// plain MSE under the same PPI assigner (the PPI vs PPI-loss comparison).
func BenchmarkAblationLoss(b *testing.B) {
	for _, tc := range []struct {
		name     string
		weighted bool
	}{
		{"weighted-loss", true},
		{"mse-loss", false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			w, res := benchSetup(b, tc.weighted)
			b.ResetTimer()
			var m platform.Metrics
			for i := 0; i < b.N; i++ {
				m = simulateOnce(w, res, assign.PPI{A: predict.DefaultMatchRadius})
			}
			b.ReportMetric(m.CompletionRate(), "completion")
			b.ReportMetric(m.RejectionRate(), "rejection")
		})
	}
}

// BenchmarkAblationGame contrasts game-theoretic clustering (GTMC) with the
// plain multi-level k-means variant on training + evaluation quality.
func BenchmarkAblationGame(b *testing.B) {
	p := dataset.Defaults(dataset.Workload1)
	p.NumWorkers = 12
	p.NewWorkers = 0
	p.TrainDays = 2
	p.TestDays = 1
	p.TicksPerDay = 60
	p.NumTestTasks = 200
	w := dataset.Generate(p)
	for _, tc := range []struct {
		name string
		alg  string
	}{
		{"GTMC", AlgGTTAML},
		{"k-means", AlgGTTAMLGT},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var mr float64
			for i := 0; i < b.N; i++ {
				res, err := predict.Train(context.Background(), w, predict.Options{
					Algorithm: tc.alg, Hidden: 8, MetaIters: 8, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				mr = res.Eval.MR
			}
			b.ReportMetric(mr, "MR")
		})
	}
}
