package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"text/tabwriter"

	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/platform"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/scenario"
	"github.com/spatialcrowd/tamp/internal/stats"
)

// MatrixAssigners is the full assigner zoo the benchmark matrix runs every
// workload generator against, in report order.
var MatrixAssigners = []string{"UB", "PPI", "KM", "GGPSO", "Greedy", "LB"}

// MatrixScales are the scales the committed BENCH_matrix.json holds.
var MatrixScales = []Scale{Smoke, Quick}

// MatrixCell is one (scale, generator, assigner) measurement of the
// benchmark matrix. Every persisted field is a pure function of the seed,
// so a fresh run must reproduce the committed file exactly
// (DiffMatrixFiles). AssignMs is wall-clock, so neither committed file
// holds it.
type MatrixCell struct {
	Scale     string `json:"scale"`
	Generator string `json:"generator"`
	Assigner  string `json:"assigner"`

	TotalTasks int     `json:"total_tasks"`
	Assigned   int     `json:"assigned"`
	Served     int     `json:"served"` // assignments accepted and completed
	Completion float64 `json:"completion_rate"`
	Rejection  float64 `json:"rejection_rate"`
	AvgCostKM  float64 `json:"avg_cost_km"`
	MeanMR     float64 `json:"mean_mr"` // mean predictor matching rate across the fleet

	OffWindow     int     `json:"off_window,omitempty"`      // worker slots outside availability windows
	BudgetDenied  int     `json:"budget_denied,omitempty"`   // offers withheld by the budget gate
	BudgetSpentKM float64 `json:"budget_spent_km,omitempty"` // predicted detour charged to the budget

	AssignMs float64 `json:"-"` // wall clock: the terminal table and the CSV only
}

// matrixJSON is the on-disk schema of BENCH_matrix.json.
type matrixJSON struct {
	Note  string       `json:"note"`
	Cells []MatrixCell `json:"cells"`
}

const matrixNote = "Benchmark matrix: scenario generators × assigner zoo. " +
	"Regenerate with `make matrix`; CI regenerates every cell with " +
	"`make matrix-check` and fails on any difference (see EXPERIMENTS.md §matrix)."

// RunMatrix runs the cross-product of scenario generators × MatrixAssigners
// at each given scale: per (scale, generator) the workload is generated and
// the mobility predictors are trained once (task-assignment-oriented loss,
// the paper's offline stage), then every assigner simulates the same online
// horizon. Cells come back in (scale, generator, assigner) order, each
// model set's forecast use named scale/generator, and all seed-derived
// metrics are bit-identical across runs and parallelism levels.
func RunMatrix(ctx context.Context, scales []Scale) ([]MatrixCell, []ForecastUse, error) {
	var cells []MatrixCell
	var uses []ForecastUse
	for _, sc := range scales {
		for _, gen := range scenario.Suite() {
			w := gen.Generate(sc.params(dataset.Workload1))
			res, err := trainPredictors(ctx, w, predict.Options{
				WeightedLoss: true, Hidden: sc.Hidden, MetaIters: sc.MetaIters, Seed: sc.Seed,
				Parallelism: sc.Parallelism,
			})
			if err != nil {
				return nil, nil, err
			}
			// Summed in w.Workers order: ranging over the res.Models map
			// would reorder the float additions from run to run.
			meanMR := 0.0
			if len(res.Models) > 0 {
				for i := range w.Workers {
					meanMR += res.Models[w.Workers[i].ID].MR
				}
				meanMR /= float64(len(res.Models))
			}
			for _, name := range MatrixAssigners {
				run := platform.Run{
					Workload:    w,
					Models:      res.Models,
					Forecasts:   res.Forecasts,
					Assigner:    MakeAssigner(name, sc),
					Parallelism: sc.Parallelism,
				}
				m, err := run.Simulate(ctx)
				if err != nil {
					return nil, nil, err
				}
				cells = append(cells, MatrixCell{
					Scale:         sc.Name,
					Generator:     gen.Name(),
					Assigner:      name,
					TotalTasks:    m.TotalTasks,
					Assigned:      m.Assigned,
					Served:        m.Accepted,
					Completion:    m.CompletionRate(),
					Rejection:     m.RejectionRate(),
					AvgCostKM:     m.AvgCostKM(),
					MeanMR:        meanMR,
					OffWindow:     m.OffWindow,
					BudgetDenied:  m.BudgetDenied,
					BudgetSpentKM: m.BudgetSpentKM,
					AssignMs:      float64(m.AssignTime.Milliseconds()),
				})
			}
			uses = append(uses, forecastUse(sc.Name+"/"+gen.Name(), res))
		}
	}
	return cells, uses, nil
}

// matrixFiles renders cells as the two committed files: the JSON of
// BENCH_matrix.json and the tables of MATRIX.md.
func matrixFiles(cells []MatrixCell) (raw, md []byte, err error) {
	raw, err = json.MarshalIndent(matrixJSON{Note: matrixNote, Cells: cells}, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	var b bytes.Buffer
	writeMatrixMD(&b, cells)
	return append(raw, '\n'), b.Bytes(), nil
}

// WriteMatrixFiles writes cells to path and MATRIX.md beside it.
func WriteMatrixFiles(path string, cells []MatrixCell) error {
	raw, md, err := matrixFiles(cells)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(filepath.Dir(path), "MATRIX.md"), md, 0o644)
}

// DiffMatrixFiles compares the committed matrix at path, and MATRIX.md
// beside it, with a fresh run's cells, and returns one line per
// difference; none means both files are what WriteMatrixFiles would write.
func DiffMatrixFiles(path string, fresh []MatrixCell) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var committed matrixJSON
	if err := json.Unmarshal(raw, &committed); err != nil {
		return nil, fmt.Errorf("experiments: parse %s: %w", path, err)
	}
	if diffs := diffMatrix(committed.Cells, fresh); len(diffs) > 0 {
		return diffs, nil
	}
	freshRaw, freshMD, err := matrixFiles(fresh)
	if err != nil {
		return nil, err
	}
	var diffs []string
	for _, f := range []struct {
		path string
		want []byte
	}{{path, freshRaw}, {filepath.Join(filepath.Dir(path), "MATRIX.md"), freshMD}} {
		if got, err := os.ReadFile(f.path); err != nil || !bytes.Equal(got, f.want) {
			diffs = append(diffs, f.path+": same cells, but not the bytes a fresh run writes")
		}
	}
	return diffs, nil
}

// diffMatrix lists every persisted field in which a fresh cell differs
// from the committed cell of the same (scale, generator, assigner), and
// every cell only one side has. Fields compare exactly: a one-ulp change
// differs.
func diffMatrix(committed, fresh []MatrixCell) []string {
	base := map[string]MatrixCell{}
	for _, c := range committed {
		base[c.key()] = c
	}
	var diffs []string
	for _, c := range fresh {
		b, ok := base[c.key()]
		if !ok {
			diffs = append(diffs, c.key()+": missing from the committed file")
			continue
		}
		delete(base, c.key())
		was, now := reflect.ValueOf(b), reflect.ValueOf(c)
		for i := 0; i < was.NumField(); i++ {
			name, _, _ := strings.Cut(was.Type().Field(i).Tag.Get("json"), ",")
			if name != "-" && was.Field(i).Interface() != now.Field(i).Interface() {
				diffs = append(diffs, fmt.Sprintf("%s %s: committed %v, fresh %v", c.key(), name, was.Field(i), now.Field(i)))
			}
		}
	}
	for _, c := range committed {
		if _, ok := base[c.key()]; ok {
			diffs = append(diffs, c.key()+": in the committed file, not produced by the fresh run")
		}
	}
	return diffs
}

func (c MatrixCell) key() string { return c.Scale + "/" + c.Generator + "/" + c.Assigner }

// matrixCols are a cell's metrics as every rendering shows them, in
// column order, under their JSON names.
var matrixCols = []struct {
	name, format string
	get          func(MatrixCell) float64
}{
	{"served", "%.0f", func(c MatrixCell) float64 { return float64(c.Served) }},
	{"total_tasks", "%.0f", func(c MatrixCell) float64 { return float64(c.TotalTasks) }},
	{"completion_rate", "%.3f", func(c MatrixCell) float64 { return c.Completion }},
	{"rejection_rate", "%.3f", func(c MatrixCell) float64 { return c.Rejection }},
	{"avg_cost_km", "%.3f", func(c MatrixCell) float64 { return c.AvgCostKM }},
	{"mean_mr", "%.3f", func(c MatrixCell) float64 { return c.MeanMR }},
	{"off_window", "%.0f", func(c MatrixCell) float64 { return float64(c.OffWindow) }},
	{"budget_denied", "%.0f", func(c MatrixCell) float64 { return float64(c.BudgetDenied) }},
	{"budget_spent_km", "%.1f", func(c MatrixCell) float64 { return c.BudgetSpentKM }},
}

// writeMatrixMD renders the human-readable MATRIX.md: one table per
// (scale, generator) block, assigners as rows.
func writeMatrixMD(w io.Writer, cells []MatrixCell) {
	fmt.Fprintf(w, "# Benchmark matrix\n\n")
	fmt.Fprintf(w, "Scenario generators × assigner zoo, every cell one seeded deterministic\n")
	fmt.Fprintf(w, "simulation (see EXPERIMENTS.md §matrix). Regenerate with `make matrix`;\n")
	fmt.Fprintf(w, "CI regenerates every cell with `make matrix-check` and requires it unchanged.\n")
	for i, c := range cells {
		if i == 0 || c.Scale != cells[i-1].Scale || c.Generator != cells[i-1].Generator {
			fmt.Fprintf(w, "\n## %s · %s\n\n", c.Scale, c.Generator)
			fmt.Fprintf(w, "| assigner | served | total | completion | rejection | cost km | mean MR | off-window | budget denied | spent km |\n")
			fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|\n")
		}
		fmt.Fprintf(w, "| %s |", c.Assigner)
		for _, col := range matrixCols {
			fmt.Fprintf(w, " "+col.format+" |", col.get(c))
		}
		fmt.Fprintln(w)
	}
}

// matrixHeader names a cell's key, its matrixCols and then extra.
func matrixHeader(extra ...string) []string {
	header := []string{"scale", "generator", "assigner"}
	for _, col := range matrixCols {
		header = append(header, col.name)
	}
	return append(header, extra...)
}

// matrixTab writes title and the column header of a terminal matrix table
// and returns the tabwriter its rows go to.
func matrixTab(w io.Writer, title string, extra ...string) *tabwriter.Writer {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(matrixHeader(extra...), "\t"))
	return tw
}

// WriteMatrixTable renders cells with aligned columns for terminal output.
func WriteMatrixTable(w io.Writer, title string, cells []MatrixCell) {
	tw := matrixTab(w, title, "assign_ms")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%s\t%s", c.Scale, c.Generator, c.Assigner)
		for _, col := range matrixCols {
			fmt.Fprintf(tw, "\t"+col.format, col.get(c))
		}
		fmt.Fprintf(tw, "\t%.0f\n", c.AssignMs)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// writeMatrixAgg renders each cell's mean ± std over the seeds' runs.
func writeMatrixAgg(w io.Writer, title string, runs [][]MatrixCell) {
	type aggCell struct {
		MatrixCell
		acc []stats.Accumulator
	}
	rows := aggregate(runs,
		func(c MatrixCell) MatrixCell {
			return MatrixCell{Scale: c.Scale, Generator: c.Generator, Assigner: c.Assigner}
		},
		func(c MatrixCell) []float64 {
			vs := make([]float64, len(matrixCols))
			for k, col := range matrixCols {
				vs[k] = col.get(c)
			}
			return vs
		},
		func(c MatrixCell, acc []stats.Accumulator) aggCell { return aggCell{c, acc} })
	tw := matrixTab(w, title)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s", r.Scale, r.Generator, r.Assigner)
		for k, col := range matrixCols {
			f := col.format
			if f == "%.0f" { // a count's mean
				f = "%.1f"
			}
			fmt.Fprintf(tw, "\t"+f+"±"+f, r.acc[k].Mean(), r.acc[k].Std())
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// WriteMatrixCSV renders cells as CSV, one record per cell, every value
// exact.
func WriteMatrixCSV(w io.Writer, cells []MatrixCell) error {
	return writeCSV(w, matrixHeader("assign_ms"), cells, func(c MatrixCell) []string {
		rec := []string{c.Scale, c.Generator, c.Assigner}
		for _, col := range matrixCols {
			rec = append(rec, strconv.FormatFloat(col.get(c), 'f', -1, 64))
		}
		return append(rec, strconv.FormatFloat(c.AssignMs, 'f', -1, 64))
	})
}
