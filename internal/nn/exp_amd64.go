package nn

// expBlocks replaces x[i] by math.Exp(x[i]) four elements at a time from the
// start of x, for as long as every element of a block lies in (−700, 700),
// and returns how many it replaced (a multiple of 4). Only the gate in
// exp.go decides whether it may run.
//
//go:noescape
func expBlocks(x []float64) int

// gateRows is gateRowsGo in four AVX lanes (gates_amd64.s), bit for bit.
// Only the gate in exp.go decides whether it may run.
//
//go:noescape
func gateRows(z, w, xh []float64, gs int)

// activateBlocks runs activate on units k0, k0+1, … of st four at a time,
// as many groups as z (their interleaved pre-activations) holds, in AVX
// lanes (activate_amd64.s), bit for bit as activateExp, and returns how
// many units it finished: it stops before the first group with an exp
// argument outside (−700, 700). st's buffers must hold every unit of z.
// Only the gate in exp.go decides whether it may run.
//
//go:noescape
func activateBlocks(st *lstmStep, k0 int, z []float64) int

// backSweep is backSweepGo in four AVX lanes (backward_amd64.s), bit for
// bit. Only the gate in exp.go decides whether it may run.
//
//go:noescape
func backSweep(dxh, grad, w, xh, dz []float64)

// backSweepIn is backSweepInGo in four AVX lanes (backward_amd64.s), bit
// for bit. Only the gate in exp.go decides whether it may run.
//
//go:noescape
func backSweepIn(grad, x, dz []float64, cols int)

// backGates is backGatesGo in four AVX lanes (backward_amd64.s), bit for
// bit. Only the gate in exp.go decides whether it may run.
//
//go:noescape
func backGates(st *lstmStep, dh, dc, dcPrev, dz []float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// lanesMissing names the first requirement for running the lane kernels
// that this CPU and OS do not meet — AVX, FMA and AVX2 reported by CPUID,
// YMM state enabled by the OS (XGETBV) — or returns "" when they meet them
// all.
func lanesMissing() string {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	switch {
	case ecx1&avx == 0:
		return "no AVX"
	case ecx1&fma == 0:
		return "no FMA"
	case ecx1&osxsave == 0:
		return "no OSXSAVE"
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return "OS does not enable YMM state"
	}
	if _, ebx7, _, _ := cpuid(7, 0); maxLeaf < 7 || ebx7&(1<<5) == 0 {
		return "no AVX2"
	}
	return ""
}
