//go:build !amd64

package nn

// The lane kernels have no assembly off amd64; the gate never calls them.
func expBlocks(x []float64) int { return 0 }

func gateRows(z, w, xh []float64, gs int) { gateRowsGo(z, w, xh, gs) }

func activateBlocks(st *lstmStep, k0 int, z []float64) int { return 0 }

func backSweep(dxh, grad, w, xh, dz []float64) { backSweepGo(dxh, grad, w, xh, dz) }

func backSweepIn(grad, x, dz []float64, cols int) { backSweepInGo(grad, x, dz, cols) }

func backGates(st *lstmStep, dh, dc, dcPrev, dz []float64) { backGatesGo(st, dh, dc, dcPrev, dz) }

func lanesMissing() string { return "not amd64" }
