package nn

import (
	"math/rand"
	"testing"
)

// The tentpole guarantee of the workspace refactor: once a model has seen a
// sequence shape, running Predict/Grad/BatchGrad on that shape allocates
// nothing. These tests warm the workspace and then assert zero allocations
// with testing.AllocsPerRun.

func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warm: grow tapes and scratch to this shape
	if n := testing.AllocsPerRun(20, f); n != 0 {
		t.Errorf("%s: %v allocs/op in steady state, want 0", name, n)
	}
}

func TestSeq2SeqSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewSeq2Seq(4, 2, 16, rng)
	s := randSample(rng, 4, 2, 6, 3)
	grad := NewVector(m.NumParams())
	loss := MSE{}
	batch := []Sample{s, randSample(rng, 4, 2, 6, 3)}

	EachKernelPath(t, func(path string) {
		requireZeroAllocs(t, path+": Seq2Seq.Predict", func() { m.Predict(s.In, 3) })
		requireZeroAllocs(t, path+": Seq2Seq.Grad", func() { m.Grad(s.In, s.Out, loss, grad) })
		requireZeroAllocs(t, path+": Seq2Seq.BatchLoss", func() { m.BatchLoss(batch, loss) })
		requireZeroAllocs(t, path+": Seq2Seq.BatchGrad", func() { m.BatchGrad(batch, loss, grad) })
	})
}

// TestAdamStepAllocFree pins the optimizer step: after the first call
// initializes the moment vectors, Step must not allocate.
func TestAdamStepAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := RandomVector(4096, 0.1, rng)
	grad := RandomVector(4096, 0.1, rng)
	opt := NewAdam(1e-3)
	requireZeroAllocs(t, "Adam.Step", func() { opt.Step(w, grad) })
}

// TestWorkspaceReusableAcrossShapes checks the grow-don't-shrink contract:
// the same model handles longer, then shorter, sequences without corrupting
// results (tapes are re-sliced, never assumed to match the last shape).
func TestWorkspaceReusableAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewSeq2Seq(3, 2, 8, rng)
	fresh := m.Clone() // fresh workspace for cross-checks

	for _, shape := range [][2]int{{2, 1}, {7, 4}, {1, 2}, {5, 3}} {
		s := randSample(rng, 3, 2, shape[0], shape[1])
		got := m.Predict(s.In, shape[1])
		want := fresh.Predict(s.In, shape[1])
		for ti := range want {
			for d := range want[ti] {
				if got[ti][d] != want[ti][d] {
					t.Fatalf("shape %v: pred[%d][%d] = %v, fresh model says %v",
						shape, ti, d, got[ti][d], want[ti][d])
				}
			}
		}
	}
}
