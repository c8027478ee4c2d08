package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchModel(hidden int) (*Seq2Seq, Sample) {
	rng := rand.New(rand.NewSource(1))
	m := NewSeq2Seq(4, 2, hidden, rng)
	return m, randSample(rng, 4, 2, 5, 1)
}

func BenchmarkSeq2SeqPredict(b *testing.B) {
	m, s := benchModel(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Predict(s.In, 1)
	}
}

func BenchmarkSeq2SeqGrad(b *testing.B) {
	m, s := benchModel(16)
	grad := NewVector(m.NumParams())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		grad.Zero()
		m.Grad(s.In, s.Out, MSE{}, grad)
	}
}

// BenchmarkLSTMForwardStep times one forward step at the production
// encoder shape (hidden 12, in 4: a packed row of 16) and decoder shape
// (hidden 12, in 2: 14, two columns past a multiple of four).
func BenchmarkLSTMForwardStep(b *testing.B) {
	for _, in := range []int{4, 2} {
		step := LSTMStepFunc(in, 12, rand.New(rand.NewSource(1)))
		b.Run(fmt.Sprintf("h12_in%d", in), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

func BenchmarkAdamStep(b *testing.B) {
	w := RandomVector(4096, 0.1, rand.New(rand.NewSource(1)))
	g := RandomVector(4096, 0.1, rand.New(rand.NewSource(2)))
	opt := NewAdam(0.001)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt.Step(w, g)
	}
}

func BenchmarkVectorAxpy(b *testing.B) {
	v := NewVector(4096)
	x := RandomVector(4096, 1, rand.New(rand.NewSource(3)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Axpy(0.5, x)
	}
}
