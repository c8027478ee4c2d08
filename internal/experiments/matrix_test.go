package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
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
	cells, _, err := RunMatrix(context.Background(), []Scale{tinyScale})
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
// must marshal to the same bytes, so `make matrix-check`, which requires a
// fresh run to reproduce the committed cells exactly, is a valid
// no-behaviour-change gate (MATRIX.md is rendered from the same cells).
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

// TestCheckMatrixRoundTrip: the files WriteMatrixFiles writes read back
// as no difference from the cells they were written from, and the exact
// check fails on a one-ulp edit to one field, naming the cell and the
// field, on a committed cell the fresh run drops, on a fresh cell the
// committed file lacks, and on an edit to either file that leaves the
// cells alone.
func TestCheckMatrixRoundTrip(t *testing.T) {
	cells := runTinyMatrix(t)
	path := filepath.Join(t.TempDir(), "BENCH_matrix.json")
	if err := WriteMatrixFiles(path, cells); err != nil {
		t.Fatal(err)
	}
	if diffs, err := DiffMatrixFiles(path, cells); err != nil || len(diffs) > 0 {
		t.Fatalf("self-check: %v, %q", err, diffs)
	}

	edited := append([]MatrixCell(nil), cells...)
	i := slices.IndexFunc(edited, func(c MatrixCell) bool { return c.BudgetSpentKM > 0 })
	if i < 0 {
		t.Fatal("no cell spends budget; the budget generator is degenerate at this scale")
	}
	edited[i].BudgetSpentKM = math.Nextafter(edited[i].BudgetSpentKM, math.Inf(1))
	diffs, err := DiffMatrixFiles(path, edited)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 || !strings.Contains(diffs[0], edited[i].key()+" budget_spent_km") {
		t.Errorf("one-ulp budget_spent_km edit reported as %q", diffs)
	}

	if diffs := diffMatrix(cells, cells[1:]); len(diffs) != 1 || !strings.Contains(diffs[0], cells[0].key()) {
		t.Errorf("committed cell the fresh run drops reported as %q", diffs)
	}
	if diffs := diffMatrix(cells[1:], cells); len(diffs) != 1 || !strings.Contains(diffs[0], cells[0].key()) {
		t.Errorf("fresh cell the committed file lacks reported as %q", diffs)
	}

	for _, name := range []string{filepath.Base(path), "MATRIX.md"} {
		file := filepath.Join(filepath.Dir(path), name)
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, bytes.Replace(raw, []byte("Benchmark matrix"), []byte("Benchmark  matrix"), 1), 0o644); err != nil {
			t.Fatal(err)
		}
		if diffs, err := DiffMatrixFiles(path, cells); err != nil || len(diffs) != 1 || !strings.Contains(diffs[0], name) {
			t.Errorf("edited %s, cells unchanged: %v, %q", name, err, diffs)
		}
		if err := os.WriteFile(file, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMatrixRegistryEntryTakesTheSeed: the registry's matrix runs exactly
// RunMatrix's cells at the scale's seed and other cells at another seed,
// and renders as CSV and over seeds like every other experiment.
func TestMatrixRegistryEntryTakesTheSeed(t *testing.T) {
	ctx := context.Background()
	e := Registry["matrix"]
	rows := e.rows.(family[MatrixCell]).rows
	cells := runTinyMatrix(t)
	wallClock := func(cs []MatrixCell) []MatrixCell {
		cs = append([]MatrixCell(nil), cs...)
		for i := range cs {
			cs[i].AssignMs = 0
		}
		return cs
	}
	seed1, uses, err := rows(ctx, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(wallClock(seed1), wallClock(cells)) {
		t.Fatalf("registry cells at seed 1 differ from RunMatrix's:\n%+v\n%+v", seed1, cells)
	}
	if len(uses) != len(scenario.Suite()) {
		t.Errorf("%d forecast uses, want one per generator", len(uses))
	}
	sc := tinyScale
	sc.Seed = 2
	seed2, _, err := rows(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(wallClock(seed2), wallClock(cells)) {
		t.Error("seed 2 reproduced every seed-1 cell: the entry ignores the seed")
	}

	var buf bytes.Buffer
	if _, err := e.RunCSV(ctx, tinyScale, &buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1+len(cells) || !strings.HasPrefix(buf.String(), "scale,generator,assigner,") {
		t.Errorf("matrix CSV has %d lines, want a header and %d cells:\n%s", lines, len(cells), buf.String())
	}
	buf.Reset()
	if _, err := e.RunSeeds(ctx, tinyScale, []int64{1, 2}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mean ± std over 2 seeds") || strings.Count(buf.String(), "±") < len(cells) {
		t.Errorf("matrix over two seeds:\n%s", buf.String())
	}
}

func TestWriteMatrixMDListsEveryCell(t *testing.T) {
	cells := runTinyMatrix(t)
	var sb strings.Builder
	writeMatrixMD(&sb, cells)
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
