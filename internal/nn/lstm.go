package nn

import (
	"math"
	"math/rand"
)

// lstmCell is a single-layer LSTM with a packed weight layout.
//
// The weight matrix for the four gates (input i, forget f, cell g, output o)
// is stored row-major as rows = 4*hidden, cols = in + hidden + 1; the final
// column is the bias. Gate pre-activations for gate block k of row r are
//
//	z[k*h+r] = Σ_j W[k*h+r][j]·x[j] + Σ_j W[k*h+r][in+j]·hPrev[j] + W[k*h+r][in+h]
//
// The cell does not own parameter storage: weights are a view into the
// model's flat Vector so meta-learning can manipulate all parameters at once.
//
// Kernels are allocation-free: forward and backward write into
// caller-provided step/scratch buffers (see workspace.go), and both fuse the
// x and hPrev passes into a single loop over a packed [x; hPrev] row so each
// weight row is swept once with hoisted, bounds-check-free slices.
type lstmCell struct {
	in, hidden int
}

func (c lstmCell) numParams() int { return 4 * c.hidden * (c.in + c.hidden + 1) }

func (c lstmCell) cols() int { return c.in + c.hidden + 1 }

// lstmStep caches everything the backward pass needs for one time step. Its
// buffers are owned by the model workspace and reused across samples.
type lstmStep struct {
	xh         []float64 // packed input [x; hPrev], copied at forward time
	cPrev      []float64 // reference to the previous step's cNew (or c0)
	i, f, g, o []float64 // gate activations
	cNew       []float64
	tanhC      []float64
	h          []float64
}

// activated lists the fields activate writes, in its order: the gates i,
// f, g, o, then cNew, tanhC and h.
func (st *lstmStep) activated() [7][]float64 {
	return [...][]float64{st.i, st.f, st.g, st.o, st.cNew, st.tanhC, st.h}
}

// gateChunk is how many hidden units forward handles per pass: their four
// gate pre-activations fill one fixed-size stack array, which then holds
// their exp arguments, so a step needs no heap scratch, which every model
// workspace would otherwise carry (a fleet holds one per worker).
const gateChunk = 16

// forward computes one LSTM step into the caller's step record. st's buffers
// must be sized for this cell (growLSTMTape).
func (c lstmCell) forward(w Vector, x, hPrev, cPrev []float64, st *lstmStep) {
	h := c.hidden
	cols := c.cols()
	nin := c.in + h
	xh := st.xh[:nin]
	copy(xh, x)
	copy(xh[c.in:], hPrev)
	st.cPrev = cPrev
	gs := h * cols
	var z [4 * gateChunk]float64
	for k0 := 0; k0 < h; k0 += gateChunk {
		k1 := min(k0+gateChunk, h)
		zc := z[:4*(k1-k0)]
		rows := w[k0*cols : 3*gs+k1*cols]
		if lanes {
			gateRows(zc, rows, xh, gs)
		} else {
			gateRowsGo(zc, rows, xh, gs)
		}
		activate(st, k0, k1, zc)
	}
}

// gateRowsGo writes the gate pre-activations of len(z)/4 consecutive hidden
// units into z, interleaved: z[4u:4u+4] holds unit u's (i, f, g, o). w
// starts at the first unit's input-gate row; a unit's four gate rows lie gs
// apart, consecutive units' rows len(xh)+1 apart, the bias last in each row.
//
// Unit-major: the four gate rows of a unit advance together, so the core
// has four independent add chains in flight instead of waiting on one.
// Each row still sums bias first, then ascending j, so every result bit is
// the scalar reference's (DESIGN.md §9); gateRows is the same loop in AVX
// lanes.
func gateRowsGo(z, w, xh []float64, gs int) {
	nin := len(xh)
	cols := nin + 1
	for u := 0; u < len(z)/4; u++ {
		base := u * cols
		ri := w[base : base+cols]
		rf := w[base+gs : base+gs+cols]
		rg := w[base+2*gs : base+2*gs+cols]
		ro := w[base+3*gs : base+3*gs+cols]
		zi, zf, zg, zo := ri[nin], rf[nin], rg[nin], ro[nin] // biases
		ri, rf, rg, ro = ri[:nin], rf[:nin], rg[:nin], ro[:nin]
		for j, xv := range xh {
			zi += ri[j] * xv
			zf += rf[j] * xv
			zg += rg[j] * xv
			zo += ro[j] * xv
		}
		q := z[4*u : 4*u+4 : 4*u+4]
		q[0], q[1], q[2], q[3] = zi, zf, zg, zo
	}
}

// activate turns the pre-activations of units [k0, k1), interleaved in z as
// gateRowsGo leaves them, into sigmoid/tanh gate values in st's gate fields
// and finishes those units' cell update: cNew = f·cPrev + i·g,
// tanhC = tanh(cNew), h = o·tanhC, with cPrev = st.cPrev.
//
// With the lanes on, activateBlocks (activate_amd64.s) takes the units four
// at a time; a group with an exp argument outside the lanes' range, and
// the len mod 4 units past the last group, go through activateExp.
// Without the lanes activateGo takes them all. The three give the same
// bits.
func activate(st *lstmStep, k0, k1 int, z []float64) {
	if !lanes {
		activateGo(st, k0, k1, z)
		return
	}
	for k1-k0 >= 4 {
		n := activateBlocks(st, k0, z[:4*(k1-k0)])
		k0, z = k0+n, z[4*n:]
		if k1-k0 >= 4 { // the group at k0 has an exp argument outside (−700, 700)
			activateExp(st, k0, k0+4, z[:16])
			k0, z = k0+4, z[16:]
		}
	}
	if k0 < k1 {
		activateExp(st, k0, k1, z)
	}
}

// activateGo is activate on the Go path: sigmoid and math.Tanh per unit.
// It is the reference the lane kernels' self-check and tests compare with.
func activateGo(st *lstmStep, k0, k1 int, z []float64) {
	gi, gf, gg, gos := st.i[k0:k1], st.f[k0:k1], st.g[k0:k1], st.o[k0:k1]
	n := len(gi)
	cPrev, cNew, tanhC, hOut := st.cPrev[k0:k1:k1], st.cNew[k0:k1:k1], st.tanhC[k0:k1:k1], st.h[k0:k1:k1]
	gf, gg, gos, z = gf[:n], gg[:n], gos[:n], z[:4*n]
	for k := range gi {
		q := z[4*k : 4*k+4 : 4*k+4]
		gi[k], gf[k], gg[k], gos[k] = sigmoid(q[0]), sigmoid(q[1]), math.Tanh(q[2]), sigmoid(q[3])
		cn := gf[k]*cPrev[k] + gi[k]*gg[k]
		tc := math.Tanh(cn)
		cNew[k], tanhC[k], hOut[k] = cn, tc, gos[k]*tc
	}
}

// activateExp is activate for the units the lane kernel leaves: the step's
// math.Exp arguments replace the pre-activations in z (which the gate
// fields hold meanwhile) and go through expInPlace in two calls (the four
// gates, then tanh(cNew)), and each unit combines the results with the
// very formulas sigmoid and math.Tanh apply to their own math.Exp result
// (sigmoidArg/sigmoidOf, tanhArg/tanhOf), so every value is the bit
// pattern those functions return. activateBlocks runs the same operations
// in lanes.
func activateExp(st *lstmStep, k0, k1 int, z []float64) {
	gi, gf, gg, gos := st.i[k0:k1], st.f[k0:k1], st.g[k0:k1], st.o[k0:k1]
	n := len(gi)
	cPrev, cNew, tanhC, hOut := st.cPrev[k0:k1:k1], st.cNew[k0:k1:k1], st.tanhC[k0:k1:k1], st.h[k0:k1:k1]
	gf, gg, gos, z = gf[:n], gg[:n], gos[:n], z[:4*n]
	for k := range gi {
		q := z[4*k : 4*k+4 : 4*k+4]
		gi[k], gf[k], gg[k], gos[k] = q[0], q[1], q[2], q[3]
		q[0], q[1], q[2], q[3] = sigmoidArg(q[0]), sigmoidArg(q[1]), tanhArg(q[2]), sigmoidArg(q[3])
	}
	expInPlace(z)
	for k := range gi {
		q := z[4*k : 4*k+4 : 4*k+4]
		gi[k], gf[k], gg[k], gos[k] = sigmoidOf(gi[k], q[0]), sigmoidOf(gf[k], q[1]), tanhOf(gg[k], q[2]), sigmoidOf(gos[k], q[3])
		cNew[k] = gf[k]*cPrev[k] + gi[k]*gg[k]
	}
	e := z[:n]
	for k, cn := range cNew {
		e[k] = tanhArg(cn)
	}
	expInPlace(e)
	for k, cn := range cNew {
		tc := tanhOf(cn, e[k])
		tanhC[k], hOut[k] = tc, gos[k]*tc
	}
}

// sigmoidArg is the argument sigmoid(z) passes to math.Exp, and sigmoidOf
// its result given e = math.Exp(sigmoidArg(z)).
func sigmoidArg(z float64) float64 {
	if z >= 0 {
		return -z
	}
	return z
}

func sigmoidOf(z, e float64) float64 {
	if z >= 0 {
		return 1 / (1 + e)
	}
	return e / (1 + e)
}

// tanhArg is the argument math.Tanh(x) passes to math.Exp when it calls it
// (0.625 ≤ |x| ≤ 44.01), and tanhOf is math.Tanh(x) given
// s = math.Exp(tanhArg(x)): the portable math.tanh that amd64 runs, branch
// for branch and operation for operation, with s standing in for its Exp
// call. The other branches ignore s.
func tanhArg(x float64) float64 { return 2 * math.Abs(x) }

func tanhOf(x, s float64) float64 {
	const maxLog = 8.8029691931113054295988e+01 // log(2**127)
	z := math.Abs(x)
	switch {
	case z > 0.5*maxLog:
		if x < 0 {
			return -1
		}
		return 1
	case z >= 0.625:
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
	default:
		if x == 0 {
			return x
		}
		s := x * x
		z = x + x*s*((tanhP[0]*s+tanhP[1])*s+tanhP[2])/(((s+tanhQ[0])*s+tanhQ[1])*s+tanhQ[2])
	}
	return z
}

// tanhP and tanhQ are math.tanh's rational-function coefficients.
var (
	tanhP = [...]float64{
		-9.64399179425052238628e-1,
		-9.92877231001918586564e1,
		-1.61468768441708447952e3,
	}
	tanhQ = [...]float64{
		1.12811678491632931402e2,
		2.23548839060100448583e3,
		4.84406305325125486048e3,
	}
)

// backward accumulates gradients for one step. dh and dc are the gradients
// flowing into this step's h and c outputs. The gradients to propagate are
// written into caller buffers: dcPrev (length hidden) and the packed dxh
// (length in+hidden, holding [dx; dhPrev]). dz is 4*hidden scratch. grad
// views the cell's slice of the flat gradient vector.
//
// dx and dhPrev both start from zero and receive their row contributions in
// the same order as the pre-workspace scalar kernel, so accumulating them in
// the packed buffer is bit-identical to the reference implementation.
func (c lstmCell) backward(w, grad Vector, st *lstmStep, dh, dc, dcPrev, dxh, dz []float64) {
	h := c.hidden
	nin := c.in + h
	if lanes {
		backGates(st, dh, dc, dcPrev, dz[:4*h])
		backSweep(dxh[:nin], grad, w, st.xh[:nin], dz[:4*h])
	} else {
		backGatesGo(st, dh, dc, dcPrev, dz[:4*h])
		backSweepGo(dxh[:nin], grad, w, st.xh[:nin], dz[:4*h])
	}
}

// backwardFirst is backward for a step whose hPrev is +0 and whose dxh and
// dcPrev nobody reads — the encoder's first — into a grad holding no −0.
// Each hPrev column of the full sweep would add dz[r]·(+0) = ±0 to a
// weight gradient, which leaves every value but −0 as it is, so the sweep
// stops at the input columns and the bias (backSweepIn) and skips the dxh
// chain. A non-finite dz[r] makes that term NaN, so such a step is taken
// again in full (backGates is a function of st, dh and dc alone).
func (c lstmCell) backwardFirst(w, grad Vector, st *lstmStep, dh, dc, dcPrev, dxh, dz []float64) {
	dz = dz[:4*c.hidden]
	if lanes {
		backGates(st, dh, dc, dcPrev, dz)
	} else {
		backGatesGo(st, dh, dc, dcPrev, dz)
	}
	for _, d := range dz {
		if d-d != 0 { // ±Inf or NaN
			c.backward(w, grad, st, dh, dc, dcPrev, dxh, dz)
			return
		}
	}
	if lanes {
		backSweepIn(grad, st.xh[:c.in], dz, c.cols())
	} else {
		backSweepInGo(grad, st.xh[:c.in], dz, c.cols())
	}
}

// backSweepInGo is the weight gradient of backSweepGo for the input
// columns x and the bias alone: for each row r with dz[r] ≠ 0 it adds
// dz[r]·x[j] into the row's first len(x) gradient entries and dz[r] into
// its bias, the last of its cols. Each entry takes the one add the full
// sweep gives it, so its bits are the full sweep's. backSweepIn is the
// same loop in AVX lanes.
func backSweepInGo(grad, x, dz []float64, cols int) {
	for r, d := range dz {
		if d == 0 {
			continue
		}
		g := grad[r*cols : (r+1)*cols]
		for j, xv := range x {
			g[j] += d * xv
		}
		g[cols-1] += d
	}
}

// backGatesGo takes the gradients dh and dc flowing into a step's outputs
// back through its cell update and gate nonlinearities: it writes dcPrev
// and the gate pre-activation gradients dz (len 4·hidden, one block per
// gate). backGates is the same loop in AVX lanes, bit for bit.
func backGatesGo(st *lstmStep, dh, dc, dcPrev, dz []float64) {
	h := len(dz) / 4
	for k := 0; k < h; k++ {
		do := dh[k] * st.tanhC[k]
		dcT := dh[k]*st.o[k]*(1-st.tanhC[k]*st.tanhC[k]) + dc[k]
		di := dcT * st.g[k]
		df := dcT * st.cPrev[k]
		dg := dcT * st.i[k]
		dcPrev[k] = dcT * st.f[k]
		// Through the gate nonlinearities.
		dz[0*h+k] = di * st.i[k] * (1 - st.i[k])
		dz[1*h+k] = df * st.f[k] * (1 - st.f[k])
		dz[2*h+k] = dg * (1 - st.g[k]*st.g[k])
		dz[3*h+k] = do * st.o[k] * (1 - st.o[k])
	}
}

// backSweepGo runs the weight sweep of a backward step. For each row r
// with dz[r] ≠ 0, in ascending r, it adds dz[r]·xh[j] into the row's weight
// gradient and dz[r] into its bias gradient, and it accumulates
// dxh[j] = Σ_r dz[r]·w[r][j] from +0 — the reference's order, so every bit
// is its (DESIGN.md §9). Rows are len(xh)+1 apart in w and grad, the bias
// last. Columns go four at a time, each dxh[j] of a block in a register,
// then each of the len(xh) mod 4 left alone, then the bias column.
// backSweep is the same loop in AVX lanes.
func backSweepGo(dxh, grad, w, xh, dz []float64) {
	nin := len(xh)
	cols := nin + 1
	dxh = dxh[:nin]
	j := 0
	for ; j+4 <= nin; j += 4 {
		x0, x1, x2, x3 := xh[j], xh[j+1], xh[j+2], xh[j+3]
		var a0, a1, a2, a3 float64
		for r, d := range dz {
			if d == 0 {
				continue
			}
			base := r*cols + j
			wr := w[base : base+4 : base+4]
			gr := grad[base : base+4 : base+4]
			gr[0] += d * x0
			gr[1] += d * x1
			gr[2] += d * x2
			gr[3] += d * x3
			a0 += d * wr[0]
			a1 += d * wr[1]
			a2 += d * wr[2]
			a3 += d * wr[3]
		}
		dxh[j], dxh[j+1], dxh[j+2], dxh[j+3] = a0, a1, a2, a3
	}
	for ; j < nin; j++ {
		xv := xh[j]
		var a float64
		for r, d := range dz {
			if d == 0 {
				continue
			}
			grad[r*cols+j] += d * xv
			a += d * w[r*cols+j]
		}
		dxh[j] = a
	}
	for r, d := range dz {
		if d != 0 {
			grad[r*cols+nin] += d
		}
	}
}

// linear is a dense layer y = W·x + b with packed layout rows = out,
// cols = in + 1 (bias last).
type linear struct {
	in, out int
}

func (l linear) numParams() int { return l.out * (l.in + 1) }

// forward writes W·x + b into the caller's y (length out).
func (l linear) forward(w Vector, x, y []float64) {
	cols := l.in + 1
	x = x[:l.in]
	for r := 0; r < l.out; r++ {
		base := r * cols
		row := w[base : base+cols]
		z := row[l.in]
		row = row[:l.in]
		for j, rv := range row {
			z += rv * x[j]
		}
		y[r] = z
	}
}

// backward accumulates parameter gradients and writes dL/dx into the
// caller's dx (length in) given dL/dy.
func (l linear) backward(w, grad Vector, x, dy, dx []float64) {
	zeroFloats(dx)
	cols := l.in + 1
	x = x[:l.in]
	dx = dx[:l.in]
	for r := 0; r < l.out; r++ {
		d := dy[r]
		if d == 0 {
			continue
		}
		base := r * cols
		grow := grad[base : base+cols]
		growv := grow[:l.in]
		row := w[base : base+l.in]
		for j, rv := range row {
			growv[j] += d * x[j]
			dx[j] += d * rv
		}
		grow[l.in] += d
	}
}

// LSTMStepFunc returns one forward step of an LSTM cell with in inputs and
// hidden units, as a closure that steps the next of n input states drawn
// from rng (x, h and c) on each call, over weights drawn from rng: the unit
// of work internal/perf times on its own (the LSTMForwardStep rows of
// BENCH_nn.json). Distinct inputs keep the branch predictor from learning
// one input's path.
func LSTMStepFunc(in, hidden, n int, rng *rand.Rand) func() {
	c := lstmCell{in: in, hidden: hidden}
	w := RandomVector(c.numParams(), 1/math.Sqrt(float64(in+hidden)), rng)
	type input struct{ x, hPrev, cPrev []float64 }
	inputs := make([]input, n)
	for i := range inputs {
		inputs[i] = input{RandomVector(in, 0.5, rng), RandomVector(hidden, 0.5, rng), RandomVector(hidden, 1, rng)}
	}
	st := &growLSTMTape(nil, 1, c)[0]
	i := 0
	return func() {
		s := &inputs[i]
		c.forward(w, s.x, s.hPrev, s.cPrev, st)
		if i++; i == n {
			i = 0
		}
	}
}

// LSTMBackwardStepFunc returns one backward step of an LSTM cell with in
// inputs and hidden units, as a closure that runs the next of n backward
// steps on each call, each over its own forward step taken on inputs and
// incoming gradients drawn from rng (none of them zero, so every row of
// the sweep runs), all over one set of weights: the unit of work
// internal/perf times on its own (the LSTMBackwardStep rows of
// BENCH_nn.json). The weight gradient accumulates across calls.
func LSTMBackwardStepFunc(in, hidden, n int, rng *rand.Rand) func() {
	c := lstmCell{in: in, hidden: hidden}
	w := RandomVector(c.numParams(), 1/math.Sqrt(float64(in+hidden)), rng)
	tapes := growLSTMTape(nil, n, c)
	dh, dc := make([][]float64, n), make([][]float64, n)
	for i := range tapes {
		x := RandomVector(in, 0.5, rng)
		hPrev := RandomVector(hidden, 0.5, rng)
		cPrev := RandomVector(hidden, 1, rng)
		dh[i], dc[i] = RandomVector(hidden, 0.1, rng), RandomVector(hidden, 0.1, rng)
		c.forward(w, x, hPrev, cPrev, &tapes[i])
	}
	grad := NewVector(c.numParams())
	dcPrev, dxh, dz := make([]float64, hidden), make([]float64, in+hidden), make([]float64, 4*hidden)
	i := 0
	return func() {
		c.backward(w, grad, &tapes[i], dh[i], dc[i], dcPrev, dxh, dz)
		if i++; i == n {
			i = 0
		}
	}
}
