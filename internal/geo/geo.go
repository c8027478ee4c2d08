// Package geo provides the spatial primitives used throughout TAMP:
// points, distances, bounding boxes, the discrete city grid the paper maps
// trajectories onto, and points of interest (POIs) used by the spatial
// similarity kernel.
//
// All coordinates are expressed in grid cells. The paper divides the city
// into a 100×50 grid; one cell corresponds to CellKM kilometres, so
// kilometre-denominated quantities such as a worker's detour budget convert
// via KMToCells / CellsToKM.
package geo

import (
	"fmt"
	"math"
)

// CellKM is the physical edge length of one grid cell in kilometres.
// With the default 100×50 grid this makes the city 20 km × 10 km, roughly
// the extent of the Porto metropolitan area used in the paper.
const CellKM = 0.2

// Point is a location in continuous grid coordinates.
type Point struct {
	X float64 // longitude axis, in cells
	Y float64 // latitude axis, in cells
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance between p and q in cells.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Lerp linearly interpolates from p to q; t=0 yields p, t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Norm returns the Euclidean norm of p treated as a vector.
func (p Point) Norm() float64 { return math.Sqrt(p.X*p.X + p.Y*p.Y) }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f,%.2f)", p.X, p.Y) }

// KMToCells converts a kilometre distance to grid cells.
func KMToCells(km float64) float64 { return km / CellKM }

// CellsToKM converts a grid-cell distance to kilometres.
func CellsToKM(cells float64) float64 { return cells * CellKM }

// BBox is an axis-aligned bounding box, inclusive of Min, exclusive of Max.
type BBox struct {
	Min, Max Point
}

// Contains reports whether p lies inside b.
func (b BBox) Contains(p Point) bool {
	return p.X >= b.Min.X && p.X < b.Max.X && p.Y >= b.Min.Y && p.Y < b.Max.Y
}

// Clamp returns p restricted to the interior of b.
func (b BBox) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, b.Min.X), math.Nextafter(b.Max.X, b.Min.X)),
		Y: math.Min(math.Max(p.Y, b.Min.Y), math.Nextafter(b.Max.Y, b.Min.Y)),
	}
}

// Width returns the horizontal extent of b in cells.
func (b BBox) Width() float64 { return b.Max.X - b.Min.X }

// Height returns the vertical extent of b in cells.
func (b BBox) Height() float64 { return b.Max.Y - b.Min.Y }

// Center returns the midpoint of b.
func (b BBox) Center() Point {
	return Point{(b.Min.X + b.Max.X) / 2, (b.Min.Y + b.Max.Y) / 2}
}

// Grid is the discrete city grid. The paper's experiments divide the area
// into 100×50 cells indexed as (latitude_i, longitude_i); here cells are
// indexed (col, row) with col in [0, Cols) and row in [0, Rows).
type Grid struct {
	Cols, Rows int
}

// DefaultGrid is the 100×50 grid used in the paper's experiments.
var DefaultGrid = Grid{Cols: 100, Rows: 50}

// Bounds returns the bounding box covered by g in cell coordinates.
func (g Grid) Bounds() BBox {
	return BBox{Min: Point{0, 0}, Max: Point{float64(g.Cols), float64(g.Rows)}}
}

// CellOf returns the (col, row) index of the cell containing p,
// clamped to the grid.
func (g Grid) CellOf(p Point) (col, row int) {
	col = clampInt(int(math.Floor(p.X)), 0, g.Cols-1)
	row = clampInt(int(math.Floor(p.Y)), 0, g.Rows-1)
	return col, row
}

// CellCenter returns the centre point of cell (col, row).
func (g Grid) CellCenter(col, row int) Point {
	return Point{float64(col) + 0.5, float64(row) + 0.5}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// POIType classifies a point of interest. The spatial similarity kernel
// (Eq. 1) treats POIs of different types as less similar.
type POIType int

// POI categories available in the synthetic city maps.
const (
	POIResidential POIType = iota
	POIBusiness
	POIRetail
	POIRestaurant
	POITransport
	POILeisure
	NumPOITypes // number of categories; keep last
)

// String implements fmt.Stringer.
func (t POIType) String() string {
	switch t {
	case POIResidential:
		return "residential"
	case POIBusiness:
		return "business"
	case POIRetail:
		return "retail"
	case POIRestaurant:
		return "restaurant"
	case POITransport:
		return "transport"
	case POILeisure:
		return "leisure"
	default:
		return fmt.Sprintf("poi(%d)", int(t))
	}
}

// POI is a typed point of interest, the v = ⟨x, y, a⟩ tuple of §III-B.
type POI struct {
	Loc  Point
	Type POIType
}
