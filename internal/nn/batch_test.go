package nn

import (
	"math"
	"math/rand"
	"testing"
)

// streamedBatchGrad spells out BatchGrad's contract: the mean of per-sample
// Grad, accumulated in batch order.
func streamedBatchGrad(m *Seq2Seq, batch []Sample, loss Loss, grad Vector) float64 {
	grad.Zero()
	if len(batch) == 0 {
		return 0
	}
	var sum float64
	for i := range batch {
		sum += m.Grad(batch[i].In, batch[i].Out, loss, grad)
	}
	grad.Scale(1 / float64(len(batch)))
	return sum / float64(len(batch))
}

func streamedBatchLoss(m *Seq2Seq, batch []Sample, loss Loss) float64 {
	var sum float64
	for i := range batch {
		s := &batch[i]
		preds := m.forward(s.In, len(s.Out))
		ws := m.ws
		ws.dPreds = growRows(ws.dPreds, len(s.Out), m.OutDim)
		sum += loss.LossGrad(preds, s.Out, ws.dPreds[:len(s.Out)])
	}
	return sum / float64(len(batch))
}

func randUniformBatch(rng *rand.Rand, size, inDim, outDim, seqIn, seqOut int) []Sample {
	batch := make([]Sample, 0, size)
	for i := 0; i < size; i++ {
		batch = append(batch, randSample(rng, inDim, outDim, seqIn, seqOut))
	}
	return batch
}

// TestBatchGradMatchesStreamed property-tests BatchGrad against the mean of
// per-sample Grad: identical loss and identical gradient, bit for bit,
// across random shapes, batch sizes, and losses. Floating-point addition is
// not associative, so bit equality here pins the reduction order — the
// contract everything downstream (meta-training determinism, checkpoint
// digests, replay equivalence) relies on.
func TestBatchGradMatchesStreamed(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	losses := []Loss{MSE{}, Scaled{Inner: MSE{}, Factor: 3.7}}
	for trial := 0; trial < 30; trial++ {
		inDim := 2 + rng.Intn(3)
		outDim := 2
		hidden := 3 + rng.Intn(6)
		seqIn := 1 + rng.Intn(6)
		seqOut := 1 + rng.Intn(4)
		size := 2 + rng.Intn(7)
		loss := losses[trial%len(losses)]

		m := NewSeq2Seq(inDim, outDim, hidden, rng)
		for i := m.outOff; i < len(m.w); i++ {
			m.w[i] = rng.NormFloat64() * 0.2
		}
		batch := randUniformBatch(rng, size, inDim, outDim, seqIn, seqOut)

		ref := m.Clone()
		wantGrad := NewVector(m.NumParams())
		wantLoss := streamedBatchGrad(ref, batch, loss, wantGrad)

		gotGrad := NewVector(m.NumParams())
		gotLoss := m.BatchGrad(batch, loss, gotGrad)

		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("trial %d: loss %v != streamed %v", trial, gotLoss, wantLoss)
		}
		for i := range gotGrad {
			if math.Float64bits(gotGrad[i]) != math.Float64bits(wantGrad[i]) {
				t.Fatalf("trial %d: grad[%d] = %v (bits %x) != streamed %v (bits %x)",
					trial, i, gotGrad[i], math.Float64bits(gotGrad[i]),
					wantGrad[i], math.Float64bits(wantGrad[i]))
			}
		}

		// Repeat on the same (now warm) workspace: reuse must not drift.
		gotLoss2 := m.BatchGrad(batch, loss, gotGrad)
		if math.Float64bits(gotLoss2) != math.Float64bits(wantLoss) {
			t.Fatalf("trial %d: warm loss %v != streamed %v", trial, gotLoss2, wantLoss)
		}
	}
}

// TestBatchGradMatchesReference pins BatchGrad to the naive pre-refactor
// reference kernels (the same oracle TestFusedLSTMMatchesReference
// uses for the per-sample path).
func TestBatchGradMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	for trial := 0; trial < 10; trial++ {
		inDim := 2 + rng.Intn(2)
		hidden := 3 + rng.Intn(4)
		seqIn := 1 + rng.Intn(5)
		seqOut := 1 + rng.Intn(3)
		size := 2 + rng.Intn(5)
		m := NewSeq2Seq(inDim, 2, hidden, rng)
		for i := m.outOff; i < len(m.w); i++ {
			m.w[i] = rng.NormFloat64() * 0.2
		}
		batch := randUniformBatch(rng, size, inDim, 2, seqIn, seqOut)
		loss := MSE{}

		refGrad := NewVector(m.NumParams())
		var refLoss float64
		for i := range batch {
			l, _ := refSeq2SeqGrad(m, batch[i].In, batch[i].Out, loss, refGrad)
			refLoss += l
		}
		refGrad.Scale(1 / float64(len(batch)))
		refLoss /= float64(len(batch))

		grad := NewVector(m.NumParams())
		gotLoss := m.BatchGrad(batch, loss, grad)
		if math.Abs(gotLoss-refLoss) > 1e-9 {
			t.Fatalf("trial %d: loss %v vs reference %v", trial, gotLoss, refLoss)
		}
		for i := range grad {
			if diff := math.Abs(grad[i] - refGrad[i]); diff > 1e-9 {
				t.Fatalf("trial %d: grad[%d] = %v vs reference %v (diff %g)",
					trial, i, grad[i], refGrad[i], diff)
			}
		}
	}
}

// TestBatchLossMatchesStreamed checks BatchLoss against the mean per-sample
// loss, bit for bit.
func TestBatchLossMatchesStreamed(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 20; trial++ {
		inDim := 2 + rng.Intn(3)
		hidden := 3 + rng.Intn(6)
		seqIn := 1 + rng.Intn(6)
		seqOut := 1 + rng.Intn(4)
		size := 2 + rng.Intn(7)
		m := NewSeq2Seq(inDim, 2, hidden, rng)
		for i := m.outOff; i < len(m.w); i++ {
			m.w[i] = rng.NormFloat64() * 0.2
		}
		batch := randUniformBatch(rng, size, inDim, 2, seqIn, seqOut)
		loss := MSE{}

		want := streamedBatchLoss(m.Clone(), batch, loss)
		got := m.BatchLoss(batch, loss)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: loss %v != streamed %v", trial, got, want)
		}
	}
}

// TestBatchGradMixedShapes checks a ragged batch: samples of differing
// lengths still yield the mean of per-sample Grad and loss exactly.
func TestBatchGradMixedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewSeq2Seq(3, 2, 5, rng)
	for i := m.outOff; i < len(m.w); i++ {
		m.w[i] = rng.NormFloat64() * 0.2
	}
	batch := []Sample{
		randSample(rng, 3, 2, 4, 2),
		randSample(rng, 3, 2, 2, 3),
		randSample(rng, 3, 2, 5, 1),
	}
	loss := MSE{}
	wantGrad := NewVector(m.NumParams())
	wantLoss := streamedBatchGrad(m.Clone(), batch, loss, wantGrad)
	grad := NewVector(m.NumParams())
	gotLoss := m.BatchGrad(batch, loss, grad)
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
		t.Fatalf("mixed-shape loss %v != streamed %v", gotLoss, wantLoss)
	}
	for i := range grad {
		if math.Float64bits(grad[i]) != math.Float64bits(wantGrad[i]) {
			t.Fatalf("mixed-shape grad[%d] differs", i)
		}
	}
	if got, want := m.BatchLoss(batch, loss), streamedBatchLoss(m.Clone(), batch, loss); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("mixed-shape BatchLoss %v != streamed %v", got, want)
	}
}

// TestBatchGradLargeBatchAllocFree checks a model's scratch does not scale
// with batch size: after a 2-sample batch has sized the workspace, batches
// of the same shape allocate nothing however large they are. AllocsPerRun
// makes one unmeasured call first, so every measured call is handed a batch
// larger than any the model has seen (128, 192, then 256 samples).
func TestBatchGradLargeBatchAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewSeq2Seq(4, 2, 16, rng)
	grad := NewVector(m.NumParams())
	loss := MSE{}
	big := randUniformBatch(rng, 256, 4, 2, 6, 3)
	m.BatchGrad(big[:2], loss, grad)
	n := 0
	allocs := testing.AllocsPerRun(3, func() {
		n += 64
		m.BatchGrad(big[:n], loss, grad)
	})
	if allocs != 0 {
		t.Errorf("BatchGrad on growing batches up to %d samples: %v allocs/op, want 0", n, allocs)
	}
}
