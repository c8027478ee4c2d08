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
// The gate mat-vec's lanes (gateRows) need only AVX and ride on the same
// choice, after their own self-check against the Go loop.

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
// the gate mat-vec, expBlocks under expInPlace — and lanesWhy says why not.
// One gate covers both, so a process runs both kernels or neither. Tests
// flip lanes to force the Go path.
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
	for i := range probe {
		probe[i] = float64((i*7919)%2003-1001) / 977
	}
	w, xh := probe[:4*gs], probe[4*gs:]
	var got, want [4 * hidden]float64
	gateRows(got[:], w, xh, gs)
	gateRowsGo(want[:], w, xh, gs)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// KernelPath names the kernels every LSTM step runs on in this process —
// "exp avx2+fma ×4, gates avx ×4", or "scalar (reason)" — so a benchmark
// figure can be attributed to them. Either path gives the same bits.
func KernelPath() string {
	if lanes {
		return "exp avx2+fma ×4, gates avx ×4"
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
