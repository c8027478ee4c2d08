// Package nn is a compact, dependency-free neural-network substrate built
// for the TAMP mobility prediction models: dense vector math, an LSTM cell
// with full backpropagation through time, an encoder–decoder sequence model
// (the paper's LSTM-Encoder-Decoder), plain and task-assignment-oriented
// losses (Eqs. 6–7), and the SGD step every training update takes (Adam is
// kept only as a timed kernel).
//
// All parameters of a model live in one flat Vector so that meta-learning
// can clone, blend, and update initializations with simple vector ops.
package nn

import (
	"math"
	"math/rand"
)

// Vector is a flat slice of parameters or gradients.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Zero sets every element of v to zero.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Axpy adds a*x to v element-wise. x must have the same length as v.
func (v Vector) Axpy(a float64, x Vector) {
	x = x[:len(v)] // hoist the length for bounds-check elimination
	for i, xv := range x {
		v[i] += a * xv
	}
}

// Scale multiplies every element of v by a.
func (v Vector) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// Dot returns the inner product of v and x.
func (v Vector) Dot(x Vector) float64 {
	x = x[:len(v)]
	var s float64
	for i, xv := range x {
		s += v[i] * xv
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// CosineSim returns the cosine similarity between v and x, or 0 when either
// vector is (numerically) zero. It is the cos(·,·) of Eq. 2.
func (v Vector) CosineSim(x Vector) float64 {
	nv, nx := v.Norm(), x.Norm()
	if nv < 1e-12 || nx < 1e-12 {
		return 0
	}
	return v.Dot(x) / (nv * nx)
}

// ClipNorm rescales v in place so its norm does not exceed maxNorm.
// It returns the norm before clipping.
func (v Vector) ClipNorm(maxNorm float64) float64 {
	n := v.Norm()
	if maxNorm > 0 && n > maxNorm {
		v.Scale(maxNorm / n)
	}
	return n
}

// RandomVector returns a vector of n values drawn uniformly from
// [-scale, scale] using rng.
func RandomVector(n int, scale float64, rng *rand.Rand) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = (rng.Float64()*2 - 1) * scale
	}
	return v
}

// Mean returns the element-wise mean of the given vectors, all of which
// must share a length. It returns nil for an empty input.
func Mean(vs []Vector) Vector {
	if len(vs) == 0 {
		return nil
	}
	out := NewVector(len(vs[0]))
	for _, v := range vs {
		out.Axpy(1, v)
	}
	out.Scale(1 / float64(len(vs)))
	return out
}

func sigmoid(x float64) float64 {
	// Guard against overflow in exp for large negative inputs.
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
