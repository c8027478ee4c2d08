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

	// Candidate-pair kernel state: the batch's task grid, per-chunk and
	// per-pool-slot probe buffers, and the regrouped result of the last query.
	grid   geo.PointGrid
	chunks []pairChunk
	slots  []pairSlot
	pairs  []feasiblePair
	start  []int32

	// Warm-start state for the recurring stage-1 KM stream (see WarmSlot):
	// persists row/column potentials and the previous matching across
	// batches, so a long-lived workspace warm-starts ticks whose confident
	// edges mostly survive. One-shot workspaces just run cold.
	warm WarmSlot

	// Edge, stage-2 candidate and assigned-mark buffers, reused across batches.
	edges                []Edge
	pending              []candidate
	assignedT, assignedW []bool

	// Warm/cold accounting for the serving tier's /api/metrics.
	lastWarmRows int
	warmBatches  uint64
	coldBatches  uint64
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// noteWarm records one stage-1 solve's warm-start depth.
func (ws *Workspace) noteWarm(rows int) {
	ws.lastWarmRows = rows
	if rows > 0 {
		ws.warmBatches++
	} else {
		ws.coldBatches++
	}
}

// WarmStats reports how deep the last batch's KM warm start reached (rows
// of the confident-edge solve resumed from checkpoints; 0 = cold) and the
// cumulative warm/cold batch split since the workspace was created.
func (ws *Workspace) WarmStats() (lastWarmRows int, warmBatches, coldBatches uint64) {
	return ws.lastWarmRows, ws.warmBatches, ws.coldBatches
}

type wsCtxKey struct{}

// WithWorkspace returns a context carrying ws; assigners invoked with it
// (via Do/AssignContext) reuse ws's grid, pair and matcher buffers.
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
