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

// The batch sizes BENCH_assign.json guards bench from their specs in
// internal/perf: go test -bench Guards/assign ./internal/perf.

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
		p.Assign(context.Background(), tasks, workers, 0)
	}
}

func BenchmarkKMBatch(b *testing.B) {
	tasks, workers := benchScenario(60, 30, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		(KM{}).Assign(context.Background(), tasks, workers, 0)
	}
}

func BenchmarkGGPSOBatch(b *testing.B) {
	tasks, workers := benchScenario(60, 30, 3)
	g := GGPSO{Population: 30, Generations: 40}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Assign(context.Background(), tasks, workers, 0)
	}
}
