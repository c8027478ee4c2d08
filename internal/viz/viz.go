// Package viz renders workloads as ASCII maps for terminals: trajectory
// density heatmaps with task and hotspot overlays. Used by cmd/tampgen's
// -viz flag and handy when debugging generators or loaders.
package viz

import (
	"fmt"
	"io"
	"strings"

	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/geo"
)

// shades maps normalized density to characters, light to dark.
var shades = []byte(" .:-=+*#%@")

// Canvas is a character raster over the city grid. Rows are stored top
// (high Y) first so printing reads like a map.
type Canvas struct {
	W, H  int
	cells [][]byte
	grid  geo.Grid
}

// NewCanvas builds a canvas of w×h characters covering grid g.
func NewCanvas(g geo.Grid, w, h int) *Canvas {
	if w <= 0 {
		w = 80
	}
	if h <= 0 {
		h = 24
	}
	c := &Canvas{W: w, H: h, grid: g}
	c.cells = make([][]byte, h)
	for i := range c.cells {
		c.cells[i] = make([]byte, w)
		for j := range c.cells[i] {
			c.cells[i][j] = ' '
		}
	}
	return c
}

// cell maps a grid point to canvas coordinates.
func (c *Canvas) cell(p geo.Point) (col, row int, ok bool) {
	b := c.grid.Bounds()
	if !b.Contains(p) {
		p = b.Clamp(p)
	}
	col = int(p.X / b.Width() * float64(c.W))
	row = c.H - 1 - int(p.Y/b.Height()*float64(c.H))
	if col < 0 || col >= c.W || row < 0 || row >= c.H {
		return 0, 0, false
	}
	return col, row, true
}

// Set places ch at the canvas cell containing p.
func (c *Canvas) Set(p geo.Point, ch byte) {
	if col, row, ok := c.cell(p); ok {
		c.cells[row][col] = ch
	}
}

// Render writes the canvas with a border.
func (c *Canvas) Render(w io.Writer) {
	border := "+" + strings.Repeat("-", c.W) + "+"
	fmt.Fprintln(w, border)
	for _, row := range c.cells {
		fmt.Fprintf(w, "|%s|\n", string(row))
	}
	fmt.Fprintln(w, border)
}

// Heatmap renders the density of the given points as shaded characters.
func Heatmap(g geo.Grid, pts []geo.Point, w, h int) *Canvas {
	c := NewCanvas(g, w, h)
	counts := make([][]int, c.H)
	for i := range counts {
		counts[i] = make([]int, c.W)
	}
	maxCount := 0
	for _, p := range pts {
		if col, row, ok := c.cell(p); ok {
			counts[row][col]++
			if counts[row][col] > maxCount {
				maxCount = counts[row][col]
			}
		}
	}
	if maxCount == 0 {
		return c
	}
	for r := range counts {
		for col, n := range counts[r] {
			if n == 0 {
				continue
			}
			// Any visited cell gets at least the lightest mark; the
			// densest gets the darkest.
			idx := 1 + (n-1)*(len(shades)-1)/maxCount
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			c.cells[r][col] = shades[idx]
		}
	}
	return c
}

// WorkloadMap renders a workload overview: worker-trajectory density as
// shading with task locations marked 'x' and hotspots 'O'.
func WorkloadMap(w *dataset.Workload, width, height int) *Canvas {
	var pts []geo.Point
	for _, wk := range w.Workers {
		for _, day := range wk.TrainDays {
			pts = append(pts, day.Points...)
		}
	}
	c := Heatmap(w.Params.Grid, pts, width, height)
	for _, t := range w.TestTasks {
		c.Set(t.Loc, 'x')
	}
	for _, h := range w.Hotspots {
		c.Set(h, 'O')
	}
	return c
}
