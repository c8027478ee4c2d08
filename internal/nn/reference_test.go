package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file preserves the pre-workspace scalar kernels as an executable
// reference. The fused, allocation-free kernels must produce predictions and
// gradients identical to these, bit for bit: the floating-point op order of
// every value is unchanged, and the gate kernel's exp lanes return
// math.Exp's bits.

type refLSTMStep struct {
	x          []float64
	hPrev      []float64
	cPrev      []float64
	i, f, g, o []float64
	cNew       []float64
	tanhC      []float64
	h          []float64
}

func refLSTMForward(c lstmCell, w Vector, x, hPrev, cPrev []float64) refLSTMStep {
	h := c.hidden
	cols := c.cols()
	st := refLSTMStep{
		x: x, hPrev: hPrev, cPrev: cPrev,
		i: make([]float64, h), f: make([]float64, h),
		g: make([]float64, h), o: make([]float64, h),
		cNew: make([]float64, h), tanhC: make([]float64, h), h: make([]float64, h),
	}
	for r := 0; r < 4*h; r++ {
		row := w[r*cols : (r+1)*cols]
		z := row[c.in+h]
		for j, xv := range x {
			z += row[j] * xv
		}
		for j, hv := range hPrev {
			z += row[c.in+j] * hv
		}
		gate, idx := r/h, r%h
		switch gate {
		case 0:
			st.i[idx] = sigmoid(z)
		case 1:
			st.f[idx] = sigmoid(z)
		case 2:
			st.g[idx] = math.Tanh(z)
		case 3:
			st.o[idx] = sigmoid(z)
		}
	}
	for k := 0; k < h; k++ {
		st.cNew[k] = st.f[k]*cPrev[k] + st.i[k]*st.g[k]
		st.tanhC[k] = math.Tanh(st.cNew[k])
		st.h[k] = st.o[k] * st.tanhC[k]
	}
	return st
}

func refLSTMBackward(c lstmCell, w, grad Vector, st refLSTMStep, dh, dc []float64) (dhPrev, dcPrev, dx []float64) {
	h := c.hidden
	cols := c.cols()
	dhPrev = make([]float64, h)
	dcPrev = make([]float64, h)
	dx = make([]float64, c.in)

	dz := make([]float64, 4*h)
	for k := 0; k < h; k++ {
		do := dh[k] * st.tanhC[k]
		dcT := dh[k]*st.o[k]*(1-st.tanhC[k]*st.tanhC[k]) + dc[k]
		di := dcT * st.g[k]
		df := dcT * st.cPrev[k]
		dg := dcT * st.i[k]
		dcPrev[k] = dcT * st.f[k]
		dz[0*h+k] = di * st.i[k] * (1 - st.i[k])
		dz[1*h+k] = df * st.f[k] * (1 - st.f[k])
		dz[2*h+k] = dg * (1 - st.g[k]*st.g[k])
		dz[3*h+k] = do * st.o[k] * (1 - st.o[k])
	}
	for r := 0; r < 4*h; r++ {
		d := dz[r]
		if d == 0 {
			continue
		}
		row := w[r*cols : (r+1)*cols]
		grow := grad[r*cols : (r+1)*cols]
		for j, xv := range st.x {
			grow[j] += d * xv
			dx[j] += d * row[j]
		}
		for j, hv := range st.hPrev {
			grow[c.in+j] += d * hv
			dhPrev[j] += d * row[c.in+j]
		}
		grow[c.in+h] += d
	}
	return dhPrev, dcPrev, dx
}

func refLinearForward(l linear, w Vector, x []float64) []float64 {
	y := make([]float64, l.out)
	cols := l.in + 1
	for r := 0; r < l.out; r++ {
		row := w[r*cols : (r+1)*cols]
		z := row[l.in]
		for j, xv := range x {
			z += row[j] * xv
		}
		y[r] = z
	}
	return y
}

func refLinearBackward(l linear, w, grad Vector, x, dy []float64) (dx []float64) {
	dx = make([]float64, l.in)
	cols := l.in + 1
	for r := 0; r < l.out; r++ {
		d := dy[r]
		if d == 0 {
			continue
		}
		row := w[r*cols : (r+1)*cols]
		grow := grad[r*cols : (r+1)*cols]
		for j, xv := range x {
			grow[j] += d * xv
			dx[j] += d * row[j]
		}
		grow[l.in] += d
	}
	return dx
}

// refSeq2SeqGrad is the pre-workspace Seq2Seq forward+backward: it runs the
// encoder–decoder with per-step allocations and exact autoregressive BPTT,
// returning the loss, predictions, and accumulating into grad.
func refSeq2SeqGrad(m *Seq2Seq, in, target [][]float64, loss Loss, grad Vector) (float64, [][]float64) {
	h := make([]float64, m.Hidden)
	c := make([]float64, m.Hidden)
	var encSteps, decSteps []refLSTMStep
	var preds [][]float64
	for _, x := range in {
		st := refLSTMForward(m.enc, m.encW(), x, h, c)
		encSteps = append(encSteps, st)
		h, c = st.h, st.cNew
	}
	prev := make([]float64, m.OutDim)
	if len(in) > 0 {
		copy(prev, in[len(in)-1])
	}
	for t := 0; t < len(target); t++ {
		st := refLSTMForward(m.dec, m.decW(), prev, h, c)
		decSteps = append(decSteps, st)
		h, c = st.h, st.cNew
		y := refLinearForward(m.out, m.outW(), st.h)
		for d := range y {
			y[d] += prev[d]
		}
		preds = append(preds, y)
		prev = y
	}

	dPreds := make([][]float64, len(preds))
	for i := range dPreds {
		dPreds[i] = make([]float64, m.OutDim)
	}
	lossVal := loss.LossGrad(preds, target, nil, dPreds)

	encG := grad[m.encOff:m.decOff]
	decG := grad[m.decOff:m.outOff]
	outG := grad[m.outOff:]

	dh := make([]float64, m.Hidden)
	dc := make([]float64, m.Hidden)
	var dNextIn []float64
	for t := len(decSteps) - 1; t >= 0; t-- {
		dy := make([]float64, m.OutDim)
		copy(dy, dPreds[t])
		if dNextIn != nil {
			for i := range dy {
				dy[i] += dNextIn[i]
			}
		}
		dhOut := refLinearBackward(m.out, m.outW(), outG, decSteps[t].h, dy)
		for i := range dh {
			dh[i] += dhOut[i]
		}
		var dx []float64
		dh, dc, dx = refLSTMBackward(m.dec, m.decW(), decG, decSteps[t], dh, dc)
		for i := range dx {
			dx[i] += dy[i]
		}
		dNextIn = dx
	}
	for t := len(encSteps) - 1; t >= 0; t-- {
		dh, dc, _ = refLSTMBackward(m.enc, m.encW(), encG, encSteps[t], dh, dc)
	}
	return lossVal, preds
}

// TestFusedLSTMMatchesReference checks the fused workspace kernels against
// the preserved pre-refactor implementation on every exp path: identical
// predictions, loss, and full-parameter gradients, bit for bit (the op order
// of every value is the reference's).
func TestFusedLSTMMatchesReference(t *testing.T) {
	EachKernelPath(t, func(path string) { fusedMatchesReference(t, path) })
}

func fusedMatchesReference(t *testing.T, path string) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		inDim := 2 + rng.Intn(3)
		outDim := 2
		hidden := 3 + rng.Intn(15) // up to 17: four column blocks and a tail
		seqIn := 1 + rng.Intn(5)
		seqOut := 1 + rng.Intn(4)
		m := NewSeq2Seq(inDim, outDim, hidden, rng)
		// A non-zero head exercises every backward path.
		for i := m.outOff; i < len(m.w); i++ {
			m.w[i] = rng.NormFloat64() * 0.2
		}
		s := randSample(rng, inDim, outDim, seqIn, seqOut)
		loss := MSE{}

		refGrad := NewVector(m.NumParams())
		refLoss, refPreds := refSeq2SeqGrad(m, s.In, s.Out, loss, refGrad)

		grad := NewVector(m.NumParams())
		preds := m.Predict(s.In, seqOut)
		at := fmt.Sprintf("%s, trial %d: ", path, trial)
		for ti := range refPreds {
			requireSameBits(t, at+fmt.Sprintf("pred[%d]", ti), preds[ti], refPreds[ti])
		}
		gotLoss := m.Grad(s.In, s.Out, loss, grad)
		requireSameBits(t, at+"loss", []float64{gotLoss}, []float64{refLoss})
		requireSameBits(t, at+"grad", grad, refGrad)
	}
}
