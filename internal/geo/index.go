package geo

import (
	"context"
	"math"
	"slices"
	"sync/atomic"

	"github.com/spatialcrowd/tamp/internal/par"
)

// GridIndex is a two-level cell-bucket spatial index over axis-aligned
// envelopes: each id is inserted into every grid cell its envelope overlaps,
// and a point query returns the ids bucketed in the cell containing the
// point. Callers pad envelopes by their query radius up front (a reach disk
// of radius r around a point set becomes the point bbox expanded by r), so
// Candidates is a single-cell lookup returning a superset of the ids whose
// padded envelope contains the query point — exact predicates filter the
// rest.
//
// The second level is the overflow list: envelopes whose half-extent is far
// above the batch's typical value (or that would cover an excessive number
// of cells) are kept off the grid entirely and returned by Overflow for
// every query. Without it, a handful of heavy-tailed detour envelopes would
// inflate the mean half-extent that picks the cell size, coarsening every
// bucket; with it, the grid is sized for the typical envelope and the few
// giants cost each query a short sorted-merge instead. Callers must
// consider Candidates ∪ Overflow the candidate set.
//
// The index is rebuilt per batch with Build, which reuses the receiver's
// internal slices: steady-state rebuilds do not grow allocations. Build fans
// out on the par pool but the resulting structure is bit-identical at every
// parallelism level (per-cell buckets are sorted ascending), so consumers
// that iterate candidates in bucket order stay deterministic.
//
// A GridIndex is single-writer: Build must not race with Candidates, but
// once built, Candidates is safe for concurrent readers.
type GridIndex struct {
	bounds      BBox
	cell        float64
	cols, rows  int
	built       bool
	oversizeCut float64 // half-extent above which an envelope overflows (frozen per Build)

	envs []BBox
	has  []bool
	over []bool // id is on the overflow list, not the grid

	counts  []int32
	starts  []int32
	cursors []int32
	entries []int32

	overflow []int32 // sorted ids visible to every query
}

// maxIndexCells caps the grid resolution so degenerate inputs (one huge
// envelope next to many tiny ones) cannot blow up rebuild cost or memory.
const maxIndexCells = 1 << 18

// overflowFactor is the half-extent multiple of the batch mean above which
// an envelope is routed to the overflow list instead of the grid.
const overflowFactor = 4.0

// maxCoverCells caps how many cells a single grid-resident envelope may
// occupy; wider envelopes overflow even when their half-extent passes the
// factor test (the geometry was chosen before per-envelope coverage is
// known, so this is the insertion-time backstop).
const maxCoverCells = 2048

// Build (re)constructs the index over n envelopes. envelope(i) returns the
// padded envelope of id i, or ok=false to leave i out of the index entirely
// (ids with no queryable extent). Envelopes with non-finite coordinates are
// skipped defensively — callers that need such ids visible must fall back to
// a full scan.
//
// On a ctx error the partially built index is marked invalid (every query
// returns nil) and the error is returned; the caller's plan is already being
// cancelled.
func (ix *GridIndex) Build(ctx context.Context, n, parallelism int, envelope func(i int) (BBox, bool)) error {
	ix.built = false
	ix.cols, ix.rows = 0, 0
	ix.overflow = ix.overflow[:0]
	ix.envs = growBBox(ix.envs, n)
	ix.has = growBool(ix.has, n)
	ix.over = growBool(ix.over, n)
	if n == 0 {
		ix.built = true
		return ctx.Err()
	}
	if err := par.ForEach(ctx, n, parallelism, func(i int) error {
		ix.envs[i], ix.has[i] = envelope(i)
		ix.over[i] = false
		return nil
	}); err != nil {
		return err
	}

	// Validation plus the mean half-extent, reduced sequentially in index
	// order so the grid geometry is parallelism-independent.
	var (
		sumHalf float64
		kept    int
	)
	for i := 0; i < n; i++ {
		if !ix.has[i] {
			continue
		}
		e := ix.envs[i]
		if !finiteBox(e) || e.Min.X > e.Max.X || e.Min.Y > e.Max.Y {
			ix.has[i] = false
			continue
		}
		sumHalf += halfExtent(e)
		kept++
	}
	if kept == 0 {
		// Nothing indexable: a valid, empty index (all queries miss).
		ix.built = true
		return ctx.Err()
	}

	// Oversize classification: the cut is a multiple of the all-envelope
	// mean, then bounds and the cell-size statistic are re-derived over the
	// grid-resident population only, so heavy-tailed envelopes stop
	// coarsening cell size for everyone.
	ix.oversizeCut = overflowFactor * (sumHalf / float64(kept))
	var (
		bounds   BBox
		any      bool
		sumGrid  float64
		keptGrid int
	)
	for i := 0; i < n; i++ {
		if !ix.has[i] || halfExtent(ix.envs[i]) > ix.oversizeCut {
			continue
		}
		e := ix.envs[i]
		if !any {
			bounds, any = e, true
		} else {
			bounds.Min.X = math.Min(bounds.Min.X, e.Min.X)
			bounds.Min.Y = math.Min(bounds.Min.Y, e.Min.Y)
			bounds.Max.X = math.Max(bounds.Max.X, e.Max.X)
			bounds.Max.Y = math.Max(bounds.Max.Y, e.Max.Y)
		}
		sumGrid += halfExtent(e)
		keptGrid++
	}
	if keptGrid == 0 {
		// Every envelope is oversize: a gridless index where the overflow
		// list is the whole candidate set.
		for i := 0; i < n; i++ {
			if ix.has[i] {
				ix.over[i] = true
				ix.overflow = append(ix.overflow, int32(i))
			}
		}
		ix.built = true
		return ctx.Err()
	}
	ix.bounds = bounds

	// Cell size: the mean grid-resident half-extent keeps the typical
	// envelope on ~3×3 cells (cheap insertion) while a query cell holds only
	// nearby ids. Resolution is clamped relative to the id count — finer
	// grids would spend more time zeroing buckets than they save on queries.
	w, h := bounds.Width(), bounds.Height()
	cell := sumGrid / float64(keptGrid)
	if cell <= 0 || math.IsNaN(cell) {
		cell = math.Max(math.Max(w, h), 1)
	}
	limit := 8 * keptGrid
	if limit < 64 {
		limit = 64
	}
	if limit > maxIndexCells {
		limit = maxIndexCells
	}
	cols := int(w/cell) + 1
	rows := int(h/cell) + 1
	if cols*rows > limit {
		scale := math.Sqrt(float64(cols*rows) / float64(limit))
		cell *= scale
		cols = int(w/cell) + 1
		rows = int(h/cell) + 1
		for cols*rows > limit { // float edge cases: coarsen until under
			cell *= 2
			cols = int(w/cell) + 1
			rows = int(h/cell) + 1
		}
	}
	ix.cell, ix.cols, ix.rows = cell, cols, rows

	if err := ix.fillFrozen(ctx, n, parallelism); err != nil {
		return err
	}
	ix.built = true
	return nil
}

// fillFrozen classifies overflow membership and fills the CSR buckets under
// the already-chosen grid geometry (bounds, cell, cols, rows, oversizeCut)
// from ix.envs/ix.has, once Build has selected that geometry.
func (ix *GridIndex) fillFrozen(ctx context.Context, n, parallelism int) error {
	cols := ix.cols

	// Final overflow classification: the half-extent cut plus the
	// insertion-time coverage cap (computable only now that cell size is
	// fixed). Sequential, in id order, so the overflow list is sorted.
	ix.overflow = ix.overflow[:0]
	for i := 0; i < n; i++ {
		if !ix.has[i] {
			ix.over[i] = false
			continue
		}
		ix.over[i] = ix.oversized(ix.envs[i])
		if ix.over[i] {
			ix.overflow = append(ix.overflow, int32(i))
		}
	}

	// CSR fill: count per cell (atomic), prefix-sum, slot ids (atomic
	// cursors), then sort each bucket ascending so the structure — and every
	// iteration over it — is identical at any parallelism level.
	cells := ix.cols * ix.rows
	ix.counts = growInt32(ix.counts, cells)
	for i := range ix.counts {
		ix.counts[i] = 0
	}
	if err := par.ForEach(ctx, n, parallelism, func(i int) error {
		if !ix.has[i] || ix.over[i] {
			return nil
		}
		c0, r0, c1, r1 := ix.cellRange(ix.envs[i])
		for r := r0; r <= r1; r++ {
			base := r * cols
			for c := c0; c <= c1; c++ {
				atomic.AddInt32(&ix.counts[base+c], 1)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	ix.starts = growInt32(ix.starts, cells+1)
	var total int32
	for i := 0; i < cells; i++ {
		ix.starts[i] = total
		total += ix.counts[i]
	}
	ix.starts[cells] = total
	ix.cursors = growInt32(ix.cursors, cells)
	copy(ix.cursors, ix.starts[:cells])
	ix.entries = growInt32(ix.entries, int(total))
	if err := par.ForEach(ctx, n, parallelism, func(i int) error {
		if !ix.has[i] || ix.over[i] {
			return nil
		}
		c0, r0, c1, r1 := ix.cellRange(ix.envs[i])
		for r := r0; r <= r1; r++ {
			base := r * cols
			for c := c0; c <= c1; c++ {
				slot := atomic.AddInt32(&ix.cursors[base+c], 1) - 1
				ix.entries[slot] = int32(i)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := par.ForEach(ctx, cells, parallelism, func(c int) error {
		if b := ix.entries[ix.starts[c]:ix.starts[c+1]]; len(b) > 1 {
			slices.Sort(b)
		}
		return nil
	}); err != nil {
		return err
	}
	return nil
}

// oversized reports whether e belongs on the overflow list under the frozen
// geometry: its half-extent is far above the batch mean, or it would occupy
// more grid cells than the coverage cap allows.
func (ix *GridIndex) oversized(e BBox) bool {
	if halfExtent(e) > ix.oversizeCut {
		return true
	}
	if ix.cols == 0 {
		return false
	}
	c0, r0, c1, r1 := ix.cellRange(e)
	return (c1-c0+1)*(r1-r0+1) > maxCoverCells
}

func halfExtent(e BBox) float64 {
	return (e.Max.X - e.Min.X + e.Max.Y - e.Min.Y) / 4
}

// Candidates returns the ids whose envelope overlaps the cell containing p,
// in ascending id order. The result aliases the index's internal storage:
// it is valid until the next Build and must not be mutated. It is a superset
// of the grid-resident ids whose envelope contains p; points outside the
// indexed bounds clamp to the nearest cell (any extra ids are filtered by the
// caller's exact predicate). Oversize ids are NOT included — callers must
// merge Overflow into every query's candidate set. An unbuilt or empty index,
// or a p with a NaN coordinate, yields nil.
func (ix *GridIndex) Candidates(p Point) []int32 {
	if !ix.built || ix.cols == 0 || math.IsNaN(p.X) || math.IsNaN(p.Y) {
		return nil
	}
	c := clampInt(int((p.X-ix.bounds.Min.X)/ix.cell), 0, ix.cols-1)
	r := clampInt(int((p.Y-ix.bounds.Min.Y)/ix.cell), 0, ix.rows-1)
	i := r*ix.cols + c
	return ix.entries[ix.starts[i]:ix.starts[i+1]]
}

// Overflow returns the ids held off the grid because their envelopes are
// oversize, in ascending id order; they are candidates for every query. The
// result aliases internal storage, valid until the next Build.
func (ix *GridIndex) Overflow() []int32 {
	if !ix.built {
		return nil
	}
	return ix.overflow
}

// cellRange returns the inclusive cell-index rectangle covered by e, clamped
// to the grid. The same subtract-divide-truncate arithmetic as Candidates
// guarantees any point inside e queries a cell within this range.
func (ix *GridIndex) cellRange(e BBox) (c0, r0, c1, r1 int) {
	c0 = clampInt(int((e.Min.X-ix.bounds.Min.X)/ix.cell), 0, ix.cols-1)
	r0 = clampInt(int((e.Min.Y-ix.bounds.Min.Y)/ix.cell), 0, ix.rows-1)
	c1 = clampInt(int((e.Max.X-ix.bounds.Min.X)/ix.cell), 0, ix.cols-1)
	r1 = clampInt(int((e.Max.Y-ix.bounds.Min.Y)/ix.cell), 0, ix.rows-1)
	return c0, r0, c1, r1
}

func finiteBox(b BBox) bool {
	return finite(b.Min.X) && finite(b.Min.Y) && finite(b.Max.X) && finite(b.Max.Y)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func growBBox(s []BBox, n int) []BBox {
	if cap(s) < n {
		return make([]BBox, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
