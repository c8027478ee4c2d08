package sim

import (
	"context"
	"math/rand"
	"testing"

	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/nn"
)

func benchPoints(n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = geo.Pt(rng.Float64()*100, rng.Float64()*50)
	}
	return out
}

func BenchmarkWasserstein1D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 150)
	ys := make([]float64, 150)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64() + 1
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Wasserstein1D(xs, ys)
	}
}

func BenchmarkSlicedWasserstein(b *testing.B) {
	pa := benchPoints(150, 1)
	pb := benchPoints(150, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SlicedWasserstein(pa, pb, DefaultProjections)
	}
}

func BenchmarkSpatialSim(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	mk := func() []geo.POI {
		out := make([]geo.POI, 40)
		for i := range out {
			out[i] = geo.POI{Loc: geo.Pt(rng.Float64()*100, rng.Float64()*50), Type: geo.POIType(rng.Intn(6))}
		}
		return out
	}
	pa, pb := mk(), mk()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SpatialSim(pa, pb)
	}
}

func BenchmarkLearningPathSim(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	mk := func() []nn.Vector {
		out := make([]nn.Vector, 3)
		for i := range out {
			out[i] = nn.RandomVector(2600, 1, rng)
		}
		return out
	}
	pa, pb := mk(), mk()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LearningPathSim(pa, pb)
	}
}

func BenchmarkSimilarityMatrix40(b *testing.B) {
	feats := make([]*Features, 40)
	for i := range feats {
		feats[i] = &Features{Points: benchPoints(150, int64(i))}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewMatrixCtx(context.Background(), len(feats), 1, func(a, c int) float64 {
			return DistributionSim(feats[a].Points, feats[c].Points)
		})
	}
}
