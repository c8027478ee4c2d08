package cluster

import (
	"math/rand"
	"testing"

	"github.com/spatialcrowd/tamp/internal/sim"
)

func BenchmarkKMedoids(b *testing.B) {
	m, _ := blockMatrix(4, 15, 1)
	items := allItems(60)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		KMedoids(m, items, 4, rand.New(rand.NewSource(int64(i))))
	}
}

func BenchmarkBestResponse(b *testing.B) {
	m, _ := blockMatrix(4, 15, 2)
	init := KMedoids(m, allItems(60), 4, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cp := make([][]int, len(init))
		for j := range init {
			cp[j] = append([]int(nil), init[j]...)
		}
		BestResponse(m, cp, 0.2)
	}
}

func BenchmarkBuildTree(b *testing.B) {
	m0, _ := blockMatrix(4, 15, 3)
	m1, _ := blockMatrix(12, 5, 4)
	cfg := Config{
		K:          4,
		Gamma:      0.2,
		Metrics:    []sim.Metric{sim.Distribution, sim.Spatial},
		Thresholds: []float64{0.95, 0.95},
		UseGame:    true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Rng = rand.New(rand.NewSource(int64(i)))
		BuildTree([]*sim.Matrix{m0, m1}, cfg)
	}
}
