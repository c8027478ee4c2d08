package geo

import "math"

// DensityIndex counts historical spatial-task locations per grid cell and
// answers "how many historical tasks fell within radius r of point p"
// queries. It backs the task-assignment-oriented loss weight f_w (Eq. 7),
// which needs |{τ : dis(τ, l_i) < d^q}| for every trajectory point l_i.
//
// Counting is done at cell granularity: a task contributes to the count of
// every cell whose centre lies within the query radius of the query point.
// In each row those cells form one run, summed from the row's running
// counts, so a query costs a few distance tests per row and no per-task
// or per-cell scan, which matters because the loss is evaluated inside the
// training loop.
type DensityIndex struct {
	grid Grid
	// rowCounts holds each row's running task counts, Cols+1 a row:
	// rowCounts[row*(Cols+1)+c] is the number of tasks in the row's cells
	// 0…c−1, so cells a…b of the row hold entry b+1 less entry a.
	rowCounts []int
	total     int
}

// NewDensityIndex returns an empty index over g.
func NewDensityIndex(g Grid) *DensityIndex {
	return &DensityIndex{grid: g, rowCounts: make([]int, (g.Cols+1)*g.Rows)}
}

// Add records one historical task at location p.
func (d *DensityIndex) Add(p Point) {
	col, row := d.grid.CellOf(p)
	run := d.rowCounts[row*(d.grid.Cols+1) : (row+1)*(d.grid.Cols+1)]
	for c := col + 1; c < len(run); c++ {
		run[c]++
	}
	d.total++
}

// AddAll records every location in ps.
func (d *DensityIndex) AddAll(ps []Point) {
	for _, p := range ps {
		d.Add(p)
	}
}

// CountWithin returns the number of recorded tasks whose cell centre lies
// within radius r (in cells) of p: those of every cell (col, row) with
// CellCenter(col, row).Dist(p) ≤ r whose column and row lie within
// ⌈r⌉ + 1 of p's cell (CellOf), which holds every cell the test passes. A
// radius that reaches past the grid's every edge, +Inf included, opens the
// window on the whole grid; a NaN radius counts nothing.
//
// In a row, that test passes on one run of cells around p's column: the
// computed distance is monotone in the column on either side of p (each
// operation of Dist rounds monotonically), and p's own column is nearest.
// The run's ends are estimated from the disc's chord and settled with the
// test itself, so the cells counted are exactly those the test passes.
func (d *DensityIndex) CountWithin(p Point, r float64) int {
	if !(r > 0) {
		return 0
	}
	g := d.grid
	col, row := g.CellOf(p)
	ir := g.Cols + g.Rows // past every edge from any cell; ⌈r⌉ may overflow int
	if r < float64(ir) {
		ir = int(math.Ceil(r)) + 1
	}
	lo, hi := col-min(ir, col), col+min(ir, g.Cols-1-col)
	n := 0
	for rr := row - min(ir, row); rr <= row+min(ir, g.Rows-1-row); rr++ {
		// The run's ends, first as the chord's: ⌈x − w − ½⌉ and ⌊x + w − ½⌋.
		dy := float64(rr) + 0.5 - p.Y
		w := math.Sqrt(max(r*r-dy*dy, 0))
		a := clampCell(p.X-w+0.5, lo, col)
		b := clampCell(p.X+w-0.5, col, hi)
		if within(g, a, rr, p, r) {
			for a > lo && within(g, a-1, rr, p, r) {
				a--
			}
		} else {
			if !within(g, col, rr, p, r) {
				continue // no cell of the row is in reach
			}
			for a++; !within(g, a, rr, p, r); a++ {
			}
		}
		if within(g, b, rr, p, r) {
			for b < hi && within(g, b+1, rr, p, r) {
				b++
			}
		} else {
			for b--; !within(g, b, rr, p, r); b-- {
			}
		}
		counts := d.rowCounts[rr*(g.Cols+1):]
		n += counts[b+1] - counts[a]
	}
	return n
}

// within is CountWithin's test: the centre of cell (col, row) lies within
// r of p.
func within(g Grid, col, row int, p Point, r float64) bool {
	return g.CellCenter(col, row).Dist(p) <= r
}

// clampCell is the cell index f rounded toward zero, clamped to [lo, hi]
// (lo for NaN).
func clampCell(f float64, lo, hi int) int {
	switch {
	case f >= float64(hi):
		return hi
	case f > float64(lo):
		return int(f)
	}
	return lo
}

// Density returns the mean number of tasks per unit disc of radius r,
// the ρ^t term of Eq. 7 (tasks per circular unit space). It is computed as
// total tasks scaled by the ratio of the disc area to the grid area, and is
// never smaller than 1 so the weight ratio in Eq. 7 stays bounded.
func (d *DensityIndex) Density(r float64) float64 {
	b := d.grid.Bounds()
	area := b.Width() * b.Height()
	if area <= 0 || d.total == 0 {
		return 1
	}
	rho := float64(d.total) * math.Pi * r * r / area
	if rho < 1 {
		return 1
	}
	return rho
}
