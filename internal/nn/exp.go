package nn

import "math"

// The gate nonlinearities of every LSTM step reduce to math.Exp calls
// (sigmoid passes ∓|x|, math.Tanh passes 2|x|). On amd64 with FMA,
// math.Exp is a branch-free sequence of exactly rounded IEEE operations, so
// expBlocks runs that same sequence in four lanes and gets its bits in every
// lane. It may run only where math.Exp itself runs that sequence, which is
// not a CPU property alone: GODEBUG=cpu.fma=off or cpu.avx=off moves
// math.Exp to its non-FMA sequence on the same hardware. So the lanes are
// chosen once, at init, when the CPU can execute them and they reproduce
// math.Exp bit for bit on expProbes; otherwise every call is math.Exp's.
// The lanes of the gate mat-vec (gateRows), of the gate activation
// (activateBlocks, which runs the exp sequence itself) and of the backward
// step (backGates, backSweep, backSweepIn) ride on the same choice, after
// their own self-checks against the Go loops.

// expProbes is the self-check set: ordinary and edge arguments, and eight on
// which math.Exp's FMA and non-FMA sequences round differently (drawn from
// N(0, 3²); about one such draw in eleven differs), so the lanes match
// math.Exp on all of them only if math.Exp runs the FMA sequence. Its length
// is a multiple of 4.
var expProbes = [...]float64{
	0.9684157578347397, -4.571903017583679, -2.5382831203667915, 5.237225195333842,
	-4.366517434057006, -0.8856409614763269, 1.7132465308396079, -1.6719274851309596,
	0, math.Copysign(0, -1), 1, -1,
	699.5, -699.5, 0x1p-1030, -0.5 * math.Ln2,
}

// lanes is true when every LSTM step runs the lane kernels — gateRows for
// the gate mat-vec and activateBlocks (expBlocks under expInPlace where it
// leaves units) forward, backGates, backSweep and backSweepIn backward —
// and lanesWhy says why not. One gate covers them all, so a process runs
// every kernel or none. Tests flip lanes to force the Go path.
var lanes, lanesWhy = chooseLanes()

func chooseLanes() (bool, string) {
	if why := lanesMissing(); why != "" {
		return false, why
	}
	got := expProbes
	if expBlocks(got[:]) != len(got) {
		return false, "self-check: range guard rejected a probe"
	}
	for i, x := range expProbes {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false, "math.Exp does not run the FMA sequence"
		}
	}
	if !gateRowsMatchGo() {
		return false, "self-check: gate mat-vec differs from the Go loop"
	}
	if !activateMatchesGo() {
		return false, "self-check: gate activation differs from the Go loop"
	}
	if !backGatesMatchGo() {
		return false, "self-check: backward gates differ from the Go loop"
	}
	if !backSweepMatchesGo() {
		return false, "self-check: backward sweep differs from the Go loop"
	}
	return true, ""
}

// gateRowsMatchGo runs gateRows and gateRowsGo on a fixed cell of hidden 5,
// in 2 — a group of four units and a single one, a block of four columns
// and a tail of three — whose values, of one magnitude and full mantissas,
// round at most adds, so a kernel that swapped two columns' adds fails it.
func gateRowsMatchGo() bool {
	const hidden, nin = 5, 7
	const gs = hidden * (nin + 1)
	var probe [4*gs + nin]float64 // the weights, then the packed input
	fillProbe(probe[:])
	w, xh := probe[:4*gs], probe[4*gs:]
	var got, want [4 * hidden]float64
	gateRows(got[:], w, xh, gs)
	gateRowsGo(want[:], w, xh, gs)
	return sameBits(got[:], want[:])
}

// tanhWitnesses are two arguments below 0.625 on which each reordering of
// tanh's rational function that changes any result, changes theirs.
var tanhWitnesses = [...]float64{-0.4873558809278332, 0.6024275267325735}

// activateMatchesGo runs activateBlocks and activateGo on a fixed step of
// hidden 8 — two groups of four units — whose gates take both sides of
// sigmoid's branch and every case of tanh, for g and for cNew: |x| below
// 0.625, from 0.625 to 44.01, beyond it on either side, and ±0 (a −0 gate
// g and cPrev give a −0 cNew). Its cNew values round differently fused,
// and units 2 and 3 have the tanhWitnesses as g (found by search against
// x·(s·P)/Q, (x·s)·(P/Q), P expanded, and P's last or Q's last two steps
// fused), so a kernel that fused cNew, reordered a case's operations, or
// took a wrong branch fails it.
func activateMatchesGo() bool {
	const hidden = 8
	var probe [5 * hidden]float64 // z, then cPrev
	fillProbe(probe[:])
	z, cPrev := probe[:4*hidden], probe[4*hidden:]
	z[2], cPrev[0] = math.Copysign(0, -1), math.Copysign(0, -1)
	z[6], cPrev[1] = 50, 1e3
	z[10], z[14] = tanhWitnesses[0], tanhWitnesses[1]
	z[22], cPrev[5] = -50, -1e3
	tape := growLSTMTape(nil, 2, lstmCell{in: 1, hidden: hidden})
	got, want := &tape[0], &tape[1]
	got.cPrev, want.cPrev = cPrev, cPrev
	if activateBlocks(got, 0, z) != hidden {
		return false
	}
	activateGo(want, 0, hidden, z)
	gotOut, wantOut := got.activated(), want.activated()
	for k := range gotOut {
		if !sameBits(gotOut[k], wantOut[k]) {
			return false
		}
	}
	return true
}

// backGatesMatchGo runs backGates and backGatesGo on a fixed step of
// hidden 15 — three groups of four units and a rest of three — chosen so
// that fusing any of the step's three multiply–add pairs (dcT's add,
// 1 − tanhC², 1 − g²) changes some output, so a kernel that fused one, or
// reordered a unit's operations, fails it.
func backGatesMatchGo() bool {
	const hidden = 15
	var probe [8 * hidden]float64 // i, f, g, o, cPrev, tanhC, dh, dc
	fillProbe(probe[:])
	p := func(k int) []float64 { return probe[k*hidden : (k+1)*hidden] }
	st := lstmStep{i: p(0), f: p(1), g: p(2), o: p(3), cPrev: p(4), tanhC: p(5)}
	var got, want [5 * hidden]float64 // dz, then dcPrev
	backGates(&st, p(6), p(7), got[4*hidden:], got[:4*hidden])
	backGatesGo(&st, p(6), p(7), want[4*hidden:], want[:4*hidden])
	return sameBits(got[:], want[:])
}

// backSweepMatchesGo runs backSweep and backSweepGo on a fixed step of
// twelve rows and eleven columns — a pair of column blocks, a single one
// and a tail of three before the bias — with a +0 and a −0 row to skip,
// then backSweepIn and backSweepInGo on its first seven columns (a block
// and a tail of three) and the bias, so a kernel that fused a multiply
// into its add, reordered the rows, skipped a wrong one or touched a
// column past the input fails it.
func backSweepMatchesGo() bool {
	const rows, nin = 12, 11
	const n = rows * (nin + 1)
	var probe [3*n + nin + rows]float64 // w, two copies of grad, xh, dz
	fillProbe(probe[:])
	w, got, want := probe[:n], probe[n:2*n], probe[2*n:3*n]
	copy(want, got)
	xh, dz := probe[3*n:3*n+nin], probe[3*n+nin:]
	dz[3], dz[8] = 0, math.Copysign(0, -1)
	var gotDxh, wantDxh [nin]float64
	backSweep(gotDxh[:], got, w, xh, dz)
	backSweepGo(wantDxh[:], want, w, xh, dz)
	backSweepIn(got, xh[:7], dz, nin+1)
	backSweepInGo(want, xh[:7], dz, nin+1)
	return sameBits(gotDxh[:], wantDxh[:]) && sameBits(got, want)
}

// fillProbe fills v with the self-checks' operands: values of one
// magnitude and full mantissas, whose products and sums round.
func fillProbe(v []float64) {
	for i := range v {
		v[i] = float64((i*7919)%2003-1001) / 977
	}
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// KernelPath names the kernels every LSTM step runs on in this process —
// "exp avx2+fma ×4, gates avx ×4, activate avx2+fma ×4, backward avx ×4",
// or "scalar (reason)" — so a benchmark figure can be attributed to them.
// Either path gives the same bits.
func KernelPath() string {
	if lanes {
		return "exp avx2+fma ×4, gates avx ×4, activate avx2+fma ×4, backward avx ×4"
	}
	return "scalar (" + lanesWhy + ")"
}

// expInPlace replaces every v[i] by math.Exp(v[i]), bit for bit. Blocks of
// four in (−700, 700) go through the lanes when the gate chose them; any
// other block, and the tail, go through math.Exp one element at a time.
func expInPlace(v []float64) {
	for lanes && len(v) >= 4 {
		v = v[expBlocks(v):]
		if len(v) >= 4 { // v[:4] holds an argument outside (−700, 700)
			scalarExp(v[:4])
			v = v[4:]
		}
	}
	scalarExp(v)
}

func scalarExp(v []float64) {
	for i, x := range v {
		v[i] = math.Exp(x)
	}
}
