package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-2, 0), Pt(2, 0), 4},
		{Pt(0, -1), Pt(0, 5), 6},
	}
	for _, tc := range tests {
		if got := tc.p.Dist(tc.q); !almostEq(got, tc.want, 1e-12) {
			t.Errorf("Dist(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want)
		}
		if got := tc.p.DistSq(tc.q); !almostEq(got, tc.want*tc.want, 1e-9) {
			t.Errorf("DistSq(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want*tc.want)
		}
	}
}

func TestPointDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		d1, d2 := a.Dist(b), b.Dist(a)
		if math.IsInf(d1, 1) && math.IsInf(d2, 1) {
			return true // overflow on extreme inputs; still symmetric
		}
		return almostEq(d1, d2, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := Pt(rng.Float64()*100, rng.Float64()*100)
		b := Pt(rng.Float64()*100, rng.Float64()*100)
		c := Pt(rng.Float64()*100, rng.Float64()*100)
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-9 {
			t.Fatalf("triangle inequality violated: %v %v %v", a, b, c)
		}
	}
}

func TestPointVectorOps(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := q.Norm(); !almostEq(got, 5, 1e-12) {
		t.Errorf("Norm = %v", got)
	}
}

func TestLerp(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := p.Lerp(q, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestKMConversionRoundTrip(t *testing.T) {
	f := func(km float64) bool {
		if math.IsNaN(km) || math.IsInf(km, 0) || math.Abs(km) > 1e300 {
			return true // km/CellKM would overflow
		}
		return almostEq(CellsToKM(KMToCells(km)), km, math.Abs(km)*1e-12+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBBoxContains(t *testing.T) {
	b := BBox{Min: Pt(0, 0), Max: Pt(10, 5)}
	if !b.Contains(Pt(0, 0)) {
		t.Error("min corner should be contained")
	}
	if b.Contains(Pt(10, 5)) {
		t.Error("max corner should be excluded")
	}
	if !b.Contains(Pt(9.999, 4.999)) {
		t.Error("interior point should be contained")
	}
	if b.Contains(Pt(-0.001, 2)) {
		t.Error("outside point should be excluded")
	}
}

func TestBBoxClampAlwaysInside(t *testing.T) {
	b := BBox{Min: Pt(0, 0), Max: Pt(100, 50)}
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		return b.Contains(b.Clamp(Pt(x, y)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBBoxGeometry(t *testing.T) {
	b := BBox{Min: Pt(2, 3), Max: Pt(12, 7)}
	if b.Width() != 10 || b.Height() != 4 {
		t.Errorf("Width/Height = %v/%v", b.Width(), b.Height())
	}
	if b.Center() != Pt(7, 5) {
		t.Errorf("Center = %v", b.Center())
	}
}

func TestGridCellOf(t *testing.T) {
	g := DefaultGrid
	tests := []struct {
		p        Point
		col, row int
	}{
		{Pt(0, 0), 0, 0},
		{Pt(0.99, 0.99), 0, 0},
		{Pt(1, 1), 1, 1},
		{Pt(99.5, 49.5), 99, 49},
		{Pt(-5, -5), 0, 0},     // clamped
		{Pt(500, 500), 99, 49}, // clamped
	}
	for _, tc := range tests {
		col, row := g.CellOf(tc.p)
		if col != tc.col || row != tc.row {
			t.Errorf("CellOf(%v) = (%d,%d), want (%d,%d)", tc.p, col, row, tc.col, tc.row)
		}
	}
}

func TestGridBounds(t *testing.T) {
	b := DefaultGrid.Bounds()
	if b.Width() != 100 || b.Height() != 50 {
		t.Errorf("bounds = %v", b)
	}
}

func TestPOITypeString(t *testing.T) {
	for ty := POIType(0); ty < NumPOITypes; ty++ {
		if s := ty.String(); s == "" || s[0] == 'p' && s != "poi" && len(s) > 3 && s[:4] == "poi(" {
			t.Errorf("POIType(%d) has fallback string %q", ty, s)
		}
	}
	if s := POIType(99).String(); s != "poi(99)" {
		t.Errorf("unknown POI type string = %q", s)
	}
}

func TestDensityIndexCounts(t *testing.T) {
	g := Grid{Cols: 20, Rows: 20}
	d := NewDensityIndex(g)
	// Ten tasks in cell (5,5), one far away.
	for i := 0; i < 10; i++ {
		d.Add(Pt(5.5, 5.5))
	}
	d.Add(Pt(18.5, 18.5))
	if d.total != 11 {
		t.Fatalf("total = %d", d.total)
	}
	if got := d.CountWithin(Pt(5.5, 5.5), 1); got != 10 {
		t.Errorf("CountWithin near cluster = %d, want 10", got)
	}
	if got := d.CountWithin(Pt(5.5, 5.5), 30); got != 11 {
		t.Errorf("CountWithin whole grid = %d, want 11", got)
	}
	if got := d.CountWithin(Pt(0.5, 18.5), 1); got != 0 {
		t.Errorf("CountWithin empty corner = %d, want 0", got)
	}
}

func TestDensityIndexZeroRadius(t *testing.T) {
	d := NewDensityIndex(Grid{Cols: 4, Rows: 4})
	d.Add(Pt(1.5, 1.5))
	if got := d.CountWithin(Pt(1.5, 1.5), 0); got != 0 {
		t.Errorf("zero radius count = %d", got)
	}
}

func TestDensityIndexDensity(t *testing.T) {
	g := Grid{Cols: 10, Rows: 10}
	d := NewDensityIndex(g)
	if rho := d.Density(2); rho != 1 {
		t.Errorf("empty density = %v, want floor 1", rho)
	}
	for i := 0; i < 1000; i++ {
		d.Add(Pt(float64(i%10)+0.5, float64(i/10%10)+0.5))
	}
	want := 1000 * math.Pi * 4 / 100
	if rho := d.Density(2); !almostEq(rho, want, 1e-9) {
		t.Errorf("density = %v, want %v", rho, want)
	}
}

func TestDensityIndexMonotoneInRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := Grid{Cols: 30, Rows: 30}
	d := NewDensityIndex(g)
	for i := 0; i < 500; i++ {
		d.Add(Pt(rng.Float64()*30, rng.Float64()*30))
	}
	q := Pt(15, 15)
	prev := 0
	for r := 1.0; r <= 20; r++ {
		n := d.CountWithin(q, r)
		if n < prev {
			t.Fatalf("count not monotone: r=%v n=%d prev=%d", r, n, prev)
		}
		prev = n
	}
}

// countWithinScan is CountWithin as the full scan of the (2⌈r⌉+3)² cells
// around p's cell that it replaced: the reference it must match.
func countWithinScan(d *DensityIndex, p Point, r float64) int {
	if r <= 0 {
		return 0
	}
	col, row := d.grid.CellOf(p)
	ir := int(math.Ceil(r)) + 1
	n := 0
	for dr := -ir; dr <= ir; dr++ {
		rr := row + dr
		if rr < 0 || rr >= d.grid.Rows {
			continue
		}
		for dc := -ir; dc <= ir; dc++ {
			cc := col + dc
			if cc < 0 || cc >= d.grid.Cols {
				continue
			}
			if d.grid.CellCenter(cc, rr).Dist(p) <= r {
				k := rr*(d.grid.Cols+1) + cc
				n += d.rowCounts[k+1] - d.rowCounts[k]
			}
		}
	}
	return n
}

// TestCountWithinMatchesScan holds CountWithin to the full scan, count for
// count, over random tasks on a 37×23 grid: random points inside and off
// the grid, points on cell edges and corners, points with a cell centre
// exactly on the disc's edge (a 3-4-5 offset at r = 5, a half cell at
// r = 0.5) or an ulp either side of it, a NaN point, and radii from
// non-positive through fractional to larger than the grid.
func TestCountWithinMatchesScan(t *testing.T) {
	g := Grid{Cols: 37, Rows: 23}
	d := NewDensityIndex(g)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		d.Add(Pt(rng.Float64()*float64(g.Cols), rng.Float64()*float64(g.Rows)))
	}
	d.Add(Pt(-5, 100)) // clamped into a corner cell
	check := func(p Point, r float64) {
		t.Helper()
		if got, want := d.CountWithin(p, r), countWithinScan(d, p, r); got != want {
			t.Fatalf("CountWithin(%v, %v) = %d, scan %d", p, r, got, want)
		}
	}
	radii := []float64{-1, 0, 0.5, 1, 2.25, 5, 7.9, 50, 1e3}
	for i := 0; i < 20000; i++ {
		r := radii[rng.Intn(len(radii))]
		if i%2 == 0 {
			r = rng.Float64() * 15
		}
		var p Point
		switch i % 4 {
		case 0: // anywhere on the grid
			p = Pt(rng.Float64()*float64(g.Cols), rng.Float64()*float64(g.Rows))
		case 1: // off the grid
			p = Pt(rng.Float64()*80-20, rng.Float64()*60-20)
		case 2: // a cell edge or corner
			p = Pt(float64(rng.Intn(g.Cols+1)), rng.Float64()*float64(g.Rows))
			if rng.Intn(2) == 0 {
				p.Y = float64(rng.Intn(g.Rows + 1))
			}
		default: // a cell centre 5 from p, at r = 5 or an ulp off it
			c := g.CellCenter(rng.Intn(g.Cols), rng.Intn(g.Rows))
			p = Pt(c.X+3*float64(1-2*rng.Intn(2)), c.Y+4*float64(1-2*rng.Intn(2)))
			if rng.Intn(2) == 0 {
				p.X, p.Y = p.Y-c.Y+c.X, p.X-c.X+c.Y
			}
			r = []float64{math.Nextafter(5, 0), 5, math.Nextafter(5, 10)}[rng.Intn(3)]
		}
		check(p, r)
	}
	for _, c := range []Point{g.CellCenter(0, 0), g.CellCenter(18, 11), g.CellCenter(36, 22)} {
		for _, r := range []float64{math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1)} {
			check(Pt(c.X+0.5, c.Y), r)
			check(Pt(c.X, c.Y-0.5), r)
		}
	}
	check(Pt(math.NaN(), 3), 5)
	check(Pt(3, math.NaN()), 5)
}

// TestCountWithinUnboundedRadius: a radius past the grid counts every task
// however large it is — ⌈r⌉ overflows int from 2⁶³ on — and a NaN radius
// counts none.
func TestCountWithinUnboundedRadius(t *testing.T) {
	g := Grid{Cols: 10, Rows: 10}
	d := NewDensityIndex(g)
	d.Add(Pt(2.5, 7.5))
	d.Add(Pt(9.9, 0.1))
	d.Add(Pt(-4, 40)) // clamped into a corner cell
	for _, p := range []Point{Pt(0, 0), Pt(5, 5), Pt(-1e6, 1e6)} {
		for _, r := range []float64{math.Inf(1), 1e300, 0x1p63, 1e18} {
			if got := d.CountWithin(p, r); got != 3 {
				t.Errorf("CountWithin(%v, %g) = %d, want 3", p, r, got)
			}
		}
		if got := d.CountWithin(p, math.NaN()); got != 0 {
			t.Errorf("CountWithin(%v, NaN) = %d, want 0", p, got)
		}
	}
	if got := d.CountWithin(Pt(5, 5), 100); got != 3 {
		t.Errorf("CountWithin(%v, 100) = %d, want 3", Pt(5, 5), got)
	}
}
