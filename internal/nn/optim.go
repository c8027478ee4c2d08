package nn

import "math"

// SGD is plain stochastic gradient descent with optional gradient clipping,
// used for the inner-loop adaptation steps of MAML (Algorithm 3, line 7).
type SGD struct {
	LR       float64
	ClipNorm float64 // 0 disables clipping
}

// Step moves w against grad in place.
func (o SGD) Step(w, grad Vector) {
	if o.ClipNorm > 0 {
		grad.ClipNorm(o.ClipNorm)
	}
	w.Axpy(-o.LR, grad)
}

// Adam is the Adam optimizer. No training path runs it: MetaTrain's outer
// update is a clipped SGD step (theta.Axpy(-MetaLR, meanGrad)). It stays for
// the kernel guard's AdamStep row and the end-to-end benchmark's nn.adam
// span, which time it.
type Adam struct {
	LR       float64
	Beta1    float64 // default 0.9
	Beta2    float64 // default 0.999
	Eps      float64 // default 1e-8
	ClipNorm float64 // 0 disables clipping

	m, v Vector
	t    int
}

// NewAdam returns an Adam optimizer with the conventional defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update to w in place.
func (o *Adam) Step(w, grad Vector) {
	if o.Beta1 == 0 {
		o.Beta1 = 0.9
	}
	if o.Beta2 == 0 {
		o.Beta2 = 0.999
	}
	if o.Eps == 0 {
		o.Eps = 1e-8
	}
	if o.m == nil {
		o.m = NewVector(len(w))
		o.v = NewVector(len(w))
	}
	if o.ClipNorm > 0 {
		grad.ClipNorm(o.ClipNorm)
	}
	o.t++
	b1c := 1 - math.Pow(o.Beta1, float64(o.t))
	b2c := 1 - math.Pow(o.Beta2, float64(o.t))
	// Fully fused single-pass update: the first-moment recurrence, the
	// second-moment recurrence, and the weight step in one sweep, so m, v,
	// grad, and w each stream through the cache once per Step.
	mv := o.m[:len(w)]
	vv := o.v[:len(w)]
	g := grad[:len(w)]
	b1, omb1 := o.Beta1, 1-o.Beta1
	b2, omb2 := o.Beta2, 1-o.Beta2
	lr, eps := o.LR, o.Eps
	for i := range w {
		gi := g[i]
		mi := b1*mv[i] + omb1*gi
		mv[i] = mi
		vi := b2*vv[i] + omb2*gi*gi
		vv[i] = vi
		w[i] -= lr * (mi / b1c) / (math.Sqrt(vi/b2c) + eps)
	}
}
