package geo

import (
	"math"
	"math/rand"
	"testing"
)

// gridPoints draws n points; shape picks uniform, one spot, or a line.
func gridPoints(rng *rand.Rand, n, shape int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		switch shape {
		case 0:
			pts[i] = Pt(rng.Float64()*100-20, rng.Float64()*50+1e3)
		case 1:
			pts[i] = Pt(3.5, -7.25)
		default:
			pts[i] = Pt(rng.Float64()*1e-3, 42)
		}
	}
	return pts
}

// TestPointGridCoverHoldsEveryPointInBox is the grid's one promise: every
// indexed point inside a query box lies in a cell of the rectangle Cover
// returns, each id is stored exactly once, and ids ascend within a cell.
func TestPointGridCoverHoldsEveryPointInBox(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var g PointGrid
	for trial := 0; trial < 60; trial++ {
		pts := gridPoints(rng, 1+rng.Intn(300), trial%3)
		if !g.Build(len(pts), func(i int) Point { return pts[i] }) {
			t.Fatalf("trial %d: Build refused finite points", trial)
		}
		// A box over everything covers the whole grid.
		_, _, c1, r1, ok := g.Cover(Pt(-1e9, -1e9), Pt(1e9, 1e9))
		cols, rows := c1+1, r1+1
		if cells := cols * rows; !ok || cells < 1 || cells > 3*len(pts)+1 {
			t.Fatalf("trial %d: %d×%d cells for %d points", trial, cols, rows, len(pts))
		}
		seen := make([]int, len(pts))
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				from, to := g.Span(r, c, c)
				for k := from; k < to; k++ {
					id := g.IDs()[k]
					seen[id]++
					if g.Points()[k] != pts[id] {
						t.Fatalf("trial %d: slot %d holds %v for id %d at %v", trial, k, g.Points()[k], id, pts[id])
					}
					if k > from && g.IDs()[k-1] >= id {
						t.Fatalf("trial %d: cell (%d,%d) ids not ascending", trial, c, r)
					}
				}
			}
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("trial %d: id %d stored %d times", trial, id, n)
			}
		}
		for q := 0; q < 40; q++ {
			p := pts[rng.Intn(len(pts))]
			half := rng.Float64() * 30 * rng.Float64()
			lo := Pt(p.X+rng.NormFloat64()*half-half, p.Y+rng.NormFloat64()*half-half)
			hi := Pt(lo.X+2*half, lo.Y+2*half)
			inCover := make(map[int32]bool)
			if c0, r0, c1, r1, ok := g.Cover(lo, hi); ok {
				for r := r0; r <= r1; r++ {
					from, to := g.Span(r, c0, c1)
					for _, id := range g.IDs()[from:to] {
						inCover[id] = true
					}
				}
			}
			for id, p := range pts {
				if p.X >= lo.X && p.X <= hi.X && p.Y >= lo.Y && p.Y <= hi.Y && !inCover[int32(id)] {
					t.Fatalf("trial %d: point %d %v inside [%v, %v] but outside its cover", trial, id, p, lo, hi)
				}
			}
		}
	}
}

func TestPointGridRefusesNonFinite(t *testing.T) {
	var g PointGrid
	for _, bad := range []Point{{math.NaN(), 0}, {0, math.Inf(1)}, {math.Inf(-1), 0}} {
		pts := []Point{{1, 1}, bad, {2, 2}}
		if g.Build(len(pts), func(i int) Point { return pts[i] }) {
			t.Errorf("Build accepted %v", bad)
		}
		if _, _, _, _, ok := g.Cover(Pt(-10, -10), Pt(10, 10)); ok {
			t.Errorf("Cover hit a grid that refused %v", bad)
		}
	}
	wide := []Point{{-1.7e308, 0}, {1.7e308, 0}}
	if g.Build(len(wide), func(i int) Point { return wide[i] }) {
		t.Error("Build accepted a span that overflows float64")
	}
	if !g.Build(0, nil) {
		t.Error("Build refused the empty set")
	}
	if _, _, _, _, ok := g.Cover(Pt(-1, -1), Pt(1, 1)); ok {
		t.Error("Cover hit an empty grid")
	}
}

func TestPointGridRebuildAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := gridPoints(rng, 2000, 0)
	at := func(i int) Point { return pts[i] }
	var g PointGrid
	g.Build(len(pts), at)
	if allocs := testing.AllocsPerRun(10, func() { g.Build(len(pts), at) }); allocs != 0 {
		t.Fatalf("warmed rebuild: %.0f allocs, want 0", allocs)
	}
}
