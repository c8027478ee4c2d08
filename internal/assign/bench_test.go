package assign

import (
	"context"
	"math/rand"
	"testing"

	"github.com/spatialcrowd/tamp/internal/geo"
)

func benchEdges(nT, nW int, density float64, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	var edges []Edge
	for ti := 0; ti < nT; ti++ {
		for wi := 0; wi < nW; wi++ {
			if rng.Float64() < density {
				edges = append(edges, Edge{Task: ti, Worker: wi, Weight: rng.Float64() + 0.01})
			}
		}
	}
	return edges
}

func BenchmarkHungarian32(b *testing.B) {
	edges := benchEdges(32, 32, 0.5, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MaxWeightMatching(edges)
	}
}

func BenchmarkHungarian128(b *testing.B) {
	edges := benchEdges(128, 128, 0.3, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MaxWeightMatching(edges)
	}
}

func benchScenario(nT, nW int, seed int64) ([]Task, []Worker) {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]Task, nT)
	for i := range tasks {
		tasks[i] = Task{ID: i, Loc: geo.Pt(rng.Float64()*50, rng.Float64()*50), Deadline: 40}
	}
	workers := make([]Worker, nW)
	for i := range workers {
		w := straightWorker(i, rng.Float64()*50, rng.Float64()*50, 10, 12, rng.Float64())
		workers[i] = w
	}
	return tasks, workers
}

func BenchmarkPPIBatch(b *testing.B) {
	tasks, workers := benchScenario(60, 30, 3)
	p := PPI{A: 1.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Assign(tasks, workers, 0)
	}
}

func BenchmarkKMBatch(b *testing.B) {
	tasks, workers := benchScenario(60, 30, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		(KM{}).Assign(tasks, workers, 0)
	}
}

func BenchmarkGGPSOBatch(b *testing.B) {
	tasks, workers := benchScenario(60, 30, 3)
	g := GGPSO{Population: 30, Generations: 40}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Assign(tasks, workers, 0)
	}
}

// assignScales are the batch sizes the BENCH_assign.json guard tracks; the
// perf harness (internal/perf/assign.go) must bench the same shapes.
var assignScales = []struct {
	name   string
	nT, nW int
}{
	{"500x500", 500, 500},
	{"2000x2000", 2000, 2000},
	{"5000x5000", 5000, 5000},
}

func benchAssign(b *testing.B, a Assigner, nT, nW int) {
	tasks, workers := ScaleScenario(nT, nW, 7)
	ctx := WithWorkspace(context.Background(), NewWorkspace())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Do(ctx, a, tasks, workers, 0)
	}
}

func BenchmarkAssignPPI(b *testing.B) {
	for _, s := range assignScales {
		b.Run(s.name, func(b *testing.B) { benchAssign(b, PPI{A: 0.5}, s.nT, s.nW) })
	}
}

func BenchmarkAssignKM(b *testing.B) {
	for _, s := range assignScales {
		b.Run(s.name, func(b *testing.B) { benchAssign(b, KM{}, s.nT, s.nW) })
	}
}
