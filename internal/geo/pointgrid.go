package geo

import "math"

// PointGrid is a uniform cell grid over a point set, stored CSR-style: the
// points are counting-sorted by cell, so the cells c0..c1 of one grid row are
// a single contiguous run of IDs/Points. It answers the inverse of
// GridIndex's question — "which points lie near this box" rather than "which
// envelopes cover this point" — and suits batches where the indexed side is
// plain points (task locations) and the probing side is many small disks
// (one per predicted worker location).
//
// Build sizes the grid from the point count (about one cell per point over
// the points' bounding box) and reuses the receiver's slices, so steady-state
// rebuilds allocate nothing. Within a cell ids ascend. A PointGrid is
// single-writer; once built it is safe for concurrent readers.
type PointGrid struct {
	min, max   Point
	inv        float64 // cells per unit length; 0 on a single-cell grid
	cols, rows int     // 0×0 until a non-empty Build succeeds
	start      []int32 // CSR offsets, cells+1 entries
	ids        []int32 // point ids, cell-major
	pts        []Point // pts[k] is the location of point ids[k]
	cell       []int32 // Build scratch: the cell of point i
}

// Build (re)indexes the n points at(0..n-1). It reports false — leaving the
// grid empty, so every Cover misses — when a coordinate is NaN or ±Inf, or
// the points span a range no float64 cell size can cover: a caller that
// needs such points visible must scan them all.
func (g *PointGrid) Build(n int, at func(i int) Point) bool {
	g.cols, g.rows = 0, 0
	if n == 0 {
		return true
	}
	lo, hi := at(0), at(0)
	for i := 0; i < n; i++ {
		p := at(i)
		if !finite(p.X) || !finite(p.Y) {
			return false
		}
		lo.X, lo.Y = math.Min(lo.X, p.X), math.Min(lo.Y, p.Y)
		hi.X, hi.Y = math.Max(hi.X, p.X), math.Max(hi.Y, p.Y)
	}
	w, h := hi.X-lo.X, hi.Y-lo.Y
	if !finite(w) || !finite(h) {
		return false
	}
	// One cell per point over the bounding box; a degenerate box (a line, a
	// single spot) is cut along its long side only. Either way the cell count
	// stays within 3n+1.
	k := float64(n)
	cols, rows, inv := 1, 1, 0.0
	if edge := math.Max(math.Sqrt(w*h/k), math.Max(w, h)/k); edge > 0 && finite(1/edge) {
		inv = 1 / edge
		cols, rows = int(w*inv)+1, int(h*inv)+1
	}
	g.min, g.max, g.inv = lo, hi, inv

	// Counting sort by cell, in id order, so ids ascend within a cell.
	// start is filled two slots ahead, prefix-summed, and then walked
	// forward by the scatter, which leaves start[c] at cell c's first slot.
	cells := cols * rows
	g.start = growInt32(g.start, cells+2)
	clear(g.start)
	g.cell = growInt32(g.cell, n)
	for i := 0; i < n; i++ {
		p := at(i)
		c := int32(g.coord(p.Y, lo.Y, rows)*cols + g.coord(p.X, lo.X, cols))
		g.cell[i] = c
		g.start[c+2]++
	}
	for c := 2; c < cells+2; c++ {
		g.start[c] += g.start[c-1]
	}
	g.ids = growInt32(g.ids, n)
	if cap(g.pts) < n {
		g.pts = make([]Point, n)
	}
	g.pts = g.pts[:n]
	for i := 0; i < n; i++ {
		slot := &g.start[g.cell[i]+1]
		g.ids[*slot], g.pts[*slot] = int32(i), at(i)
		*slot++
	}
	g.start = g.start[:cells+1]
	g.cols, g.rows = cols, rows
	return true
}

// coord maps one coordinate to its cell column (or row), clamped to [0, n).
// It is monotone in x, so a point inside a box always lands within the cell
// range the box's corners map to.
func (g *PointGrid) coord(x, origin float64, n int) int {
	f := (x - origin) * g.inv
	if !(f > 0) {
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

// Cover returns the inclusive cell rectangle overlapping the box [lo, hi],
// or ok=false when the box misses the indexed points' bounding box (always,
// on an empty grid). Every indexed point inside the box lies in a cell of
// the rectangle.
func (g *PointGrid) Cover(lo, hi Point) (c0, r0, c1, r1 int, ok bool) {
	if g.cols == 0 || hi.X < g.min.X || lo.X > g.max.X || hi.Y < g.min.Y || lo.Y > g.max.Y {
		return 0, 0, 0, 0, false
	}
	return g.coord(lo.X, g.min.X, g.cols), g.coord(lo.Y, g.min.Y, g.rows),
		g.coord(hi.X, g.min.X, g.cols), g.coord(hi.Y, g.min.Y, g.rows), true
}

// Span returns the half-open range of IDs/Points holding the points of
// cells c0..c1 in grid row r.
func (g *PointGrid) Span(r, c0, c1 int) (from, to int32) {
	base := r * g.cols
	return g.start[base+c0], g.start[base+c1+1]
}

// IDs returns the indexed point ids in cell-major order (ascending within a
// cell); Points returns their locations in the same order. Both alias the
// grid's storage: read-only, valid until the next Build.
func (g *PointGrid) IDs() []int32    { return g.ids }
func (g *PointGrid) Points() []Point { return g.pts }
