package nn

import "math"

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
	// Unit-major: the four gate rows of hidden unit k advance together, so
	// the core has four independent add chains in flight instead of waiting
	// on one. Each row still sums bias first, then ascending j, so every
	// result bit is the scalar reference's (DESIGN.md §9).
	gs := h * cols
	for k := 0; k < h; k++ {
		base := k * cols
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
		st.i[k] = sigmoid(zi)
		st.f[k] = sigmoid(zf)
		st.g[k] = math.Tanh(zg)
		st.o[k] = sigmoid(zo)
		cn := st.f[k]*cPrev[k] + st.i[k]*st.g[k]
		tc := math.Tanh(cn)
		st.cNew[k], st.tanhC[k], st.h[k] = cn, tc, st.o[k]*tc
	}
}

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
	cols := c.cols()
	nin := c.in + h
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
	dxh = dxh[:nin]
	zeroFloats(dxh)
	xh := st.xh[:nin]
	for r := 0; r < 4*h; r++ {
		d := dz[r]
		if d == 0 {
			continue
		}
		base := r * cols
		grow := grad[base : base+cols]
		growv := grow[:nin]
		row := w[base : base+nin]
		for j, rv := range row {
			growv[j] += d * xh[j]
			dxh[j] += d * rv
		}
		grow[nin] += d
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
