package assign

import (
	"context"

	"github.com/spatialcrowd/tamp/internal/geo"
)

// Workspace owns the reusable per-assigner scratch: the task grid and pair
// buffers of the candidate-pair kernel (pairs.go), rebuilt each batch, and
// the sparse-KM Matcher. Long-lived callers (the platform simulator, which
// runs one batch per tick for the whole horizon) create one Workspace and
// thread it through the context so grid cells, pair buffers and KM arrays
// are recycled across ticks instead of reallocated; assigners invoked
// without one fall back to a fresh workspace per call.
//
// A Workspace serializes one assignment at a time: the assigner that owns it
// builds the grid, then fans out read-only probes. It must not be shared
// between concurrently running assigners.
type Workspace struct {
	m Matcher

	// Candidate-pair kernel state: the batch's task grid or its workers'
	// point boxes, per-chunk and per-pool-slot probe buffers, and the
	// regrouped result of the last query.
	grid   geo.PointGrid
	boxes  []float64
	chunks []pairChunk
	slots  []pairSlot
	pairs  []feasiblePair
	start  []int32

	// Edge, stage-2 candidate and assigned-mark buffers, reused across batches.
	edges                []Edge
	pending              []candidate
	assignedT, assignedW []bool
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// clearedBools readies a cleared bool scratch of length n.
func clearedBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

type wsCtxKey struct{}

// WithWorkspace returns a context carrying ws; assigners invoked with it
// (through Assign or Do) reuse ws's grid, pair and matcher buffers.
func WithWorkspace(ctx context.Context, ws *Workspace) context.Context {
	return context.WithValue(ctx, wsCtxKey{}, ws)
}

// workspaceFor returns the context's workspace, or a fresh one.
func workspaceFor(ctx context.Context) *Workspace {
	if ws, ok := ctx.Value(wsCtxKey{}).(*Workspace); ok {
		return ws
	}
	return &Workspace{}
}
