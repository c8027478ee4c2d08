package viz

import (
	"bytes"
	"strings"
	"testing"

	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/geo"
)

func TestCanvasSetAndRender(t *testing.T) {
	c := NewCanvas(geo.Grid{Cols: 10, Rows: 10}, 10, 10)
	c.Set(geo.Pt(0.5, 0.5), 'A') // bottom-left
	c.Set(geo.Pt(9.5, 9.5), 'B') // top-right
	var buf bytes.Buffer
	c.Render(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 12 { // border + 10 rows + border
		t.Fatalf("rendered %d lines", len(lines))
	}
	// Bottom-left 'A' appears on the last content row, first column.
	if lines[10][1] != 'A' {
		t.Errorf("bottom-left row = %q", lines[10])
	}
	if lines[1][10] != 'B' {
		t.Errorf("top-right row = %q", lines[1])
	}
}

func TestCanvasDefaultsAndClamp(t *testing.T) {
	c := NewCanvas(geo.DefaultGrid, 0, 0)
	if c.W != 80 || c.H != 24 {
		t.Errorf("defaults = %dx%d", c.W, c.H)
	}
	// Out-of-grid points clamp instead of panicking.
	c.Set(geo.Pt(-100, 900), '!')
}

func TestHeatmapShading(t *testing.T) {
	g := geo.Grid{Cols: 10, Rows: 10}
	var pts []geo.Point
	for i := 0; i < 100; i++ {
		pts = append(pts, geo.Pt(1.5, 1.5)) // hot cell
	}
	pts = append(pts, geo.Pt(8.5, 8.5)) // single visit
	c := Heatmap(g, pts, 10, 10)
	var buf bytes.Buffer
	c.Render(&buf)
	s := buf.String()
	if !strings.Contains(s, "@") {
		t.Errorf("hot cell not dark:\n%s", s)
	}
	if !strings.Contains(s, ".") && !strings.Contains(s, ":") {
		t.Errorf("light cell missing:\n%s", s)
	}
	// Empty heatmap stays blank.
	c = Heatmap(g, nil, 10, 10)
	buf.Reset()
	c.Render(&buf)
	if strings.ContainsAny(buf.String(), "@#%") {
		t.Error("empty heatmap has shading")
	}
}

func TestWorkloadMap(t *testing.T) {
	p := dataset.Defaults(dataset.Workload1)
	p.NumWorkers = 6
	p.NewWorkers = 0
	p.TrainDays = 1
	p.TestDays = 1
	p.TicksPerDay = 40
	p.NumTestTasks = 50
	w := dataset.Generate(p)
	c := WorkloadMap(w, 60, 20)
	var buf bytes.Buffer
	c.Render(&buf)
	s := buf.String()
	if !strings.Contains(s, "x") {
		t.Error("tasks not marked")
	}
	if !strings.Contains(s, "O") {
		t.Error("hotspots not marked")
	}
}
