//go:build !amd64

package nn

// The lane kernels have no assembly off amd64; the gate never calls them.
func expBlocks(x []float64) int { return 0 }

func gateRows(z, w, xh []float64, gs int) { gateRowsGo(z, w, xh, gs) }

func lanesMissing() string { return "not amd64" }
