package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"github.com/spatialcrowd/tamp/internal/scenario"
)

// tinyScale keeps the matrix cross-product fast enough for the unit suite
// while still training real models and serving real tasks.
var tinyScale = Scale{
	Name:        "smoke",
	NumWorkers:  5,
	NewWorkers:  0,
	TrainDays:   2,
	TestDays:    1,
	TicksPerDay: 36,
	TaskUnit:    15,
	Hidden:      4,
	MetaIters:   2,
	Population:  8,
	Generations: 5,
	Seed:        1,
}

func runTinyMatrix(t *testing.T) []MatrixCell {
	t.Helper()
	cells, err := RunMatrix(context.Background(), []Scale{tinyScale}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func TestRunMatrixCoversCrossProduct(t *testing.T) {
	cells := runTinyMatrix(t)
	gens := scenario.Suite()
	if want := len(gens) * len(MatrixAssigners); len(cells) != want {
		t.Fatalf("%d cells, want %d (generators × assigners)", len(cells), want)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		seen[c.Generator+"/"+c.Assigner] = true
		if c.Scale != tinyScale.Name {
			t.Errorf("cell %s/%s has scale %q", c.Generator, c.Assigner, c.Scale)
		}
		if c.TotalTasks == 0 {
			t.Errorf("cell %s/%s saw no tasks", c.Generator, c.Assigner)
		}
	}
	for _, g := range gens {
		for _, a := range MatrixAssigners {
			if !seen[g.Name()+"/"+a] {
				t.Errorf("missing cell %s/%s", g.Name(), a)
			}
		}
	}
}

// The committed matrix is a regression contract: two runs at the same scale
// must marshal to the same bytes, so `make matrix && git diff --exit-code`
// is a valid no-behaviour-change gate (MATRIX.md is rendered from the same
// cells).
func TestRunMatrixDeterministic(t *testing.T) {
	marshal := func() []byte {
		raw, err := json.Marshal(runTinyMatrix(t))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if a, b := marshal(), marshal(); !bytes.Equal(a, b) {
		t.Errorf("two matrix runs at the same scale marshal differently:\n%s\n%s", a, b)
	}
}

func TestCheckMatrixRoundTrip(t *testing.T) {
	cells := runTinyMatrix(t)
	path := filepath.Join(t.TempDir(), "matrix.json")
	if err := WriteMatrixJSON(path, cells); err != nil {
		t.Fatal(err)
	}
	committed, err := LoadMatrix(path)
	if err != nil {
		t.Fatal(err)
	}

	if report, ok := CheckMatrix(committed, cells); !ok {
		t.Fatalf("self-check failed:\n%s", report)
	}

	// A drifted metric must fail with the offending cell named.
	drifted := append([]MatrixCell(nil), cells...)
	drifted[0].Served += 10
	report, ok := CheckMatrix(committed, drifted)
	if ok {
		t.Fatal("served drift of +10 passed the check")
	}
	if !strings.Contains(report, drifted[0].Generator) || !strings.Contains(report, drifted[0].Assigner) {
		t.Errorf("drift report does not name the cell:\n%s", report)
	}

	// A fresh cell missing from the committed file must fail (new
	// generators/assigners force a matrix regeneration)...
	short := MatrixFile{Cells: committed.Cells[1:]}
	if _, ok := CheckMatrix(short, cells); ok {
		t.Error("fresh cell absent from the committed matrix passed the check")
	}
	// ...and so must a committed cell the fresh run no longer produces.
	if _, ok := CheckMatrix(committed, cells[1:]); ok {
		t.Error("committed cell absent from the fresh run passed the check")
	}
}

// Committed scales outside the fresh run (e.g. quick cells during a
// smoke-only CI check) are ignored, not reported missing.
func TestCheckMatrixIgnoresUncheckedScales(t *testing.T) {
	cells := runTinyMatrix(t)
	other := append([]MatrixCell(nil), cells...)
	for i := range other {
		other[i].Scale = "quick"
	}
	committed := MatrixFile{Cells: append(append([]MatrixCell(nil), cells...), other...)}
	if report, ok := CheckMatrix(committed, cells); !ok {
		t.Fatalf("smoke-only check tripped on committed quick cells:\n%s", report)
	}
}

func TestMatrixScaleNames(t *testing.T) {
	for _, name := range []string{"smoke", "quick", "full"} {
		sc, err := MatrixScale(name)
		if err != nil || sc.Name != name {
			t.Errorf("MatrixScale(%q) = %+v, %v", name, sc.Name, err)
		}
	}
	if _, err := MatrixScale("warp"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestWriteMatrixMDListsEveryCell(t *testing.T) {
	cells := runTinyMatrix(t)
	var sb strings.Builder
	WriteMatrixMD(&sb, cells)
	md := sb.String()
	for _, a := range MatrixAssigners {
		if !strings.Contains(md, a) {
			t.Errorf("MATRIX.md output missing assigner %s", a)
		}
	}
	for _, g := range scenario.Suite() {
		if !strings.Contains(md, g.Name()) {
			t.Errorf("MATRIX.md output missing generator %s", g.Name())
		}
	}
}
