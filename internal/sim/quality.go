package sim

import (
	"context"

	"github.com/spatialcrowd/tamp/internal/par"
)

// Matrix is a symmetric pairwise-similarity matrix over n items, stored as
// the full square for O(1) access. Diagonal entries are 1.
type Matrix struct {
	N int
	v []float64
}

// NewMatrixCtx computes the symmetric similarity matrix for n items from f,
// evaluating f only on the upper triangle, with the triangle's rows
// computed concurrently on a par pool (parallelism ≤ 0 means GOMAXPROCS).
// f must be a pure function of (i, j); each row writes a disjoint slice
// segment and the symmetric mirror runs sequentially afterwards, so the
// result is identical at every parallelism level. Cancelling ctx abandons
// the remaining rows (the caller is expected to check ctx and discard the
// partial matrix).
func NewMatrixCtx(ctx context.Context, n, parallelism int, f func(i, j int) float64) *Matrix {
	m := &Matrix{N: n, v: make([]float64, n*n)}
	par.ForEach(ctx, n, parallelism, func(i int) error {
		m.v[i*n+i] = 1
		for j := i + 1; j < n; j++ {
			m.v[i*n+j] = f(i, j)
		}
		return nil
	})
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.v[j*n+i] = m.v[i*n+j]
		}
	}
	return m
}

// At returns the similarity between items i and j.
func (m *Matrix) At(i, j int) float64 { return m.v[i*m.N+j] }

// Quality is Q(G) of Eq. 4 for the cluster holding the given member indexes:
// the mean pairwise similarity for clusters of two or more, the singleton
// utility γ for clusters of one, and 0 for empty clusters.
func Quality(m *Matrix, members []int, gamma float64) float64 {
	switch len(members) {
	case 0:
		return 0
	case 1:
		return gamma
	}
	var sum float64
	for a, i := range members {
		for b, j := range members {
			if a == b {
				continue
			}
			sum += m.At(i, j)
		}
	}
	n := float64(len(members))
	return sum / (n * (n - 1))
}

// Utility is u(Γ_i, G) of Eq. 5: the marginal quality the item contributes
// by joining the cluster whose members are given including the item itself.
// It equals Q(G) − Q(G \ {item}).
func Utility(m *Matrix, membersWithItem []int, item int, gamma float64) float64 {
	with := Quality(m, membersWithItem, gamma)
	without := make([]int, 0, len(membersWithItem)-1)
	for _, j := range membersWithItem {
		if j != item {
			without = append(without, j)
		}
	}
	return with - Quality(m, without, gamma)
}
