package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Sample is one supervised sequence pair in model space: In is the observed
// trajectory (seq_in steps of InDim values), Out the continuation to predict
// (seq_out steps of OutDim values), and W the weight f_w of each Out step
// that WeightedMSE reads (Eq. 7); nil weighs every step 1.
type Sample struct {
	In  [][]float64
	Out [][]float64
	W   []float64
}

// Seq2Seq is the LSTM-Encoder-Decoder mobility prediction model of §III-B:
// an encoder LSTM consumes the input trajectory, its final state seeds a
// decoder LSTM that autoregressively emits the predicted continuation, one
// point per step, through a linear output head.
//
// The head is residual: each step predicts the displacement from the
// previous position, y_t = y_{t−1} + W_o·h_t (+ b_o), with y_{−1} the last
// observed input point. Trajectories move a little per tick, so a
// zero-initialized displacement head starts at the strong "stand still"
// baseline and only has to learn the motion.
//
// All parameters live in a single flat Vector (Weights), enabling the
// meta-learning machinery to treat the model as a point in parameter space.
//
// A model owns a reusable scratch workspace (see workspace.go), so Predict,
// Grad, BatchLoss, and BatchGrad are steady-state allocation-free — and a
// model must not be shared between goroutines without external
// synchronization. Clones get independent workspaces.
type Seq2Seq struct {
	InDim  int // input feature size per step (2: x, y)
	OutDim int // output feature size per step (2: x, y)
	Hidden int

	enc lstmCell
	dec lstmCell
	out linear

	w Vector

	encOff, decOff, outOff int

	ws *lstmWS // lazily built scratch arena; nil after Clone
}

// NewSeq2Seq constructs a model with small random weights drawn from rng.
func NewSeq2Seq(inDim, outDim, hidden int, rng *rand.Rand) *Seq2Seq {
	m := &Seq2Seq{
		InDim:  inDim,
		OutDim: outDim,
		Hidden: hidden,
		enc:    lstmCell{in: inDim, hidden: hidden},
		dec:    lstmCell{in: outDim, hidden: hidden},
		out:    linear{in: hidden, out: outDim},
	}
	m.encOff = 0
	m.decOff = m.enc.numParams()
	m.outOff = m.decOff + m.dec.numParams()
	n := m.outOff + m.out.numParams()
	// Xavier-style scale keeps gate pre-activations in the linear regime.
	scale := 1 / math.Sqrt(float64(hidden+inDim))
	m.w = RandomVector(n, scale, rng)
	// Zero displacement head: the untrained model predicts "no movement",
	// the natural baseline the residual architecture improves upon.
	for i := m.outOff; i < len(m.w); i++ {
		m.w[i] = 0
	}
	return m
}

// NumParams returns the size of the flat parameter vector.
func (m *Seq2Seq) NumParams() int { return len(m.w) }

// Weights returns the live parameter vector. Mutating it mutates the model.
func (m *Seq2Seq) Weights() Vector { return m.w }

// SetWeights copies w into the model. It panics if the length differs.
func (m *Seq2Seq) SetWeights(w Vector) {
	if len(w) != len(m.w) {
		panic(fmt.Sprintf("nn: SetWeights length %d != %d", len(w), len(m.w)))
	}
	copy(m.w, w)
}

// Clone returns a structurally identical model with copied weights and a
// private (lazily built) workspace.
func (m *Seq2Seq) Clone() *Seq2Seq {
	cp := *m
	cp.w = m.w.Clone()
	cp.ws = nil
	return &cp
}

func (m *Seq2Seq) encW() Vector { return m.w[m.encOff:m.decOff] }
func (m *Seq2Seq) decW() Vector { return m.w[m.decOff:m.outOff] }
func (m *Seq2Seq) outW() Vector { return m.w[m.outOff:] }

// Predict runs the model on one input sequence and returns seqOut predicted
// steps of OutDim values each. The returned rows are owned by the model's
// workspace: they stay valid until the next Predict/Grad/BatchLoss/BatchGrad
// call on this model, so copy them if you need to retain them.
func (m *Seq2Seq) Predict(in [][]float64, seqOut int) [][]float64 {
	return m.forward(in, seqOut)
}

// forward runs the encoder–decoder, recording the step tape in the
// workspace, and returns the workspace-owned prediction rows.
func (m *Seq2Seq) forward(in [][]float64, seqOut int) [][]float64 {
	ws := m.workspace()
	ws.encTape = growLSTMTape(ws.encTape, len(in), m.enc)
	ws.decTape = growLSTMTape(ws.decTape, seqOut, m.dec)
	ws.preds = growRows(ws.preds, seqOut, m.OutDim)
	zeroFloats(ws.h0)
	zeroFloats(ws.c0)
	h, c := ws.h0, ws.c0
	for t := range in {
		st := &ws.encTape[t]
		m.enc.forward(m.encW(), in[t], h, c, st)
		h, c = st.h, st.cNew
	}
	// The decoder's first input is the last observed point (projected to
	// OutDim); afterwards it consumes its own previous prediction.
	prev := ws.dec0
	zeroFloats(prev)
	if len(in) > 0 {
		copy(prev, in[len(in)-1])
	}
	for t := 0; t < seqOut; t++ {
		st := &ws.decTape[t]
		m.dec.forward(m.decW(), prev, h, c, st)
		h, c = st.h, st.cNew
		y := ws.preds[t]
		m.out.forward(m.outW(), st.h, y)
		for d := range y {
			y[d] += prev[d] // residual: displacement from previous position
		}
		prev = y
	}
	return ws.preds[:seqOut]
}

// Grad computes the loss of the model on (in, target) under loss, every
// step weighing 1, and accumulates dLoss/dWeights into grad (which must
// have NumParams length). The autoregressive decoder input path is
// differentiated exactly: the gradient of step t's prediction includes its
// effect on steps t+1….
func (m *Seq2Seq) Grad(in, target [][]float64, loss Loss, grad Vector) float64 {
	if len(grad) != len(m.w) {
		panic(fmt.Sprintf("nn: Grad vector length %d != %d", len(grad), len(m.w)))
	}
	return m.grad(in, target, nil, loss, grad, false)
}

// grad is Grad with the target's step weights w (nil: 1 each). noNegZero
// says that no element of grad is −0, as holds for every Grad inside
// BatchGrad: the encoder's first step then skips the terms its zero state
// contributes (lstmCell.backwardFirst, DESIGN.md §9).
func (m *Seq2Seq) grad(in, target [][]float64, w []float64, loss Loss, grad Vector, noNegZero bool) float64 {
	seqOut := len(target)
	preds := m.forward(in, seqOut)
	ws := m.ws
	ws.dPreds = growRows(ws.dPreds, seqOut, m.OutDim)
	dPreds := ws.dPreds[:seqOut]
	lossVal := loss.LossGrad(preds, target, w, dPreds)

	encG := grad[m.encOff:m.decOff]
	decG := grad[m.decOff:m.outOff]
	outG := grad[m.outOff:]

	zeroFloats(ws.dh)
	zeroFloats(ws.dc)
	dh, dc, dcPrev := ws.dh, ws.dc, ws.dcPrev
	// ws.dNext carries the gradient of the next step's decoder input, which
	// is this step's prediction.
	for t := seqOut - 1; t >= 0; t-- {
		st := &ws.decTape[t]
		dy := ws.dy
		copy(dy, dPreds[t])
		if t < seqOut-1 {
			for i := range dy {
				dy[i] += ws.dNext[i]
			}
		}
		m.out.backward(m.outW(), outG, st.h, dy, ws.dhOut)
		for i := range dh {
			dh[i] += ws.dhOut[i]
		}
		m.dec.backward(m.decW(), decG, st, dh, dc, dcPrev, ws.dxhDec, ws.dz)
		// The previous prediction feeds step t twice: as the decoder input
		// (dx, the first OutDim entries of the packed dxh) and through the
		// residual head (dy).
		for i := range ws.dNext {
			ws.dNext[i] = ws.dxhDec[i] + dy[i]
		}
		copy(dh, ws.dxhDec[m.dec.in:])
		dc, dcPrev = dcPrev, dc
	}
	// The first decoder input is the last encoder input (data), so the input
	// gradient stops here. Continue BPTT through the encoder; nothing reads
	// what its first step would pass back.
	for t := len(in) - 1; t >= 0; t-- {
		st := &ws.encTape[t]
		if t == 0 && noNegZero {
			m.enc.backwardFirst(m.encW(), encG, st, dh, dc, dcPrev, ws.dxhEnc, ws.dz)
			break
		}
		m.enc.backward(m.encW(), encG, st, dh, dc, dcPrev, ws.dxhEnc, ws.dz)
		copy(dh, ws.dxhEnc[m.enc.in:])
		dc, dcPrev = dcPrev, dc
	}
	return lossVal
}

// BatchLoss returns the mean loss of the model over batch without computing
// gradients.
func (m *Seq2Seq) BatchLoss(batch []Sample, loss Loss) float64 {
	if len(batch) == 0 {
		return 0
	}
	var sum float64
	for i := range batch {
		s := &batch[i]
		preds := m.forward(s.In, len(s.Out))
		ws := m.ws
		ws.dPreds = growRows(ws.dPreds, len(s.Out), m.OutDim)
		sum += loss.LossGrad(preds, s.Out, s.W, ws.dPreds[:len(s.Out)])
	}
	return sum / float64(len(batch))
}

// BatchGrad accumulates the mean gradient of the loss over batch into grad
// and returns the mean loss, each sample weighted by its W. grad is zeroed
// first. Samples stream through Grad one at a time, so the scratch a model
// holds does not grow with the batch.
func (m *Seq2Seq) BatchGrad(batch []Sample, loss Loss, grad Vector) float64 {
	grad.Zero()
	if len(batch) == 0 {
		return 0
	}
	if len(grad) != len(m.w) {
		panic(fmt.Sprintf("nn: BatchGrad vector length %d != %d", len(grad), len(m.w)))
	}
	var sum float64
	for i := range batch {
		s := &batch[i]
		// grad starts at +0 and a sum rounded to nearest is −0 only when
		// both addends are, so no element of it is −0 here.
		sum += m.grad(s.In, s.Out, s.W, loss, grad, true)
	}
	grad.Scale(1 / float64(len(batch)))
	return sum / float64(len(batch))
}
