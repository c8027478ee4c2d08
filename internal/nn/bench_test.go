package nn

import (
	"math/rand"
	"testing"
)

// The kernels BENCH_nn.json guards (Seq2SeqPredict, Seq2SeqGrad,
// LSTMForwardStep, AdamStep) bench from their specs in internal/perf:
// go test -bench Guards/nn ./internal/perf.

func BenchmarkVectorAxpy(b *testing.B) {
	v := NewVector(4096)
	x := RandomVector(4096, 1, rand.New(rand.NewSource(3)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Axpy(0.5, x)
	}
}
