package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/platform"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/scenario"
)

// MatrixAssigners is the full assigner zoo the benchmark matrix runs every
// workload generator against, in report order.
var MatrixAssigners = []string{"UB", "PPI", "KM", "GGPSO", "Greedy", "LB"}

// MatrixCell is one (scale, generator, assigner) measurement of the
// benchmark matrix. Every persisted field is a pure function of the seed —
// the committed matrix is a regression contract, CheckMatrix diffs fresh
// runs against it with per-metric tolerances, and regenerating it without a
// behaviour change leaves BENCH_matrix.json and MATRIX.md byte-identical.
// AssignMs is wall-clock, so it is shown by WriteMatrixTable only and never
// written to either file.
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

	AssignMs float64 `json:"-"` // terminal table only
}

// MatrixFile is the on-disk schema of BENCH_matrix.json.
type MatrixFile struct {
	Note  string       `json:"note"`
	Cells []MatrixCell `json:"cells"`
}

const matrixNote = "Benchmark matrix: scenario generators × assigner zoo. " +
	"Regenerate with `make matrix`; CI diffs a fresh smoke-scale run against " +
	"the committed cells with `make matrix-check` (see EXPERIMENTS.md for the " +
	"tolerance policy)."

// MatrixScale resolves a scale name accepted by the matrix harness.
func MatrixScale(name string) (Scale, error) {
	switch name {
	case "smoke":
		return Smoke, nil
	case "quick":
		return Quick, nil
	case "full":
		return Full, nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown matrix scale %q (want smoke, quick, or full)", name)
}

// RunMatrix runs the cross-product of scenario generators × MatrixAssigners
// at each given scale: per (scale, generator) the workload is generated and
// the mobility predictors are trained once (task-assignment-oriented loss,
// the paper's offline stage), then every assigner simulates the same online
// horizon. Cells come back in deterministic (scale, generator, assigner)
// order with all seed-derived metrics bit-identical across runs and
// parallelism levels.
func RunMatrix(ctx context.Context, scales []Scale, progress io.Writer) ([]MatrixCell, error) {
	var cells []MatrixCell
	for _, sc := range scales {
		for _, gen := range scenario.Suite() {
			w := gen.Generate(sc.params(dataset.Workload1))
			res, err := trainPredictors(ctx, w, predict.Options{
				WeightedLoss: true, Hidden: sc.Hidden, MetaIters: sc.MetaIters, Seed: sc.Seed,
				Parallelism: sc.Parallelism,
			})
			if err != nil {
				return nil, err
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
					Assigner:    makeAssigner(name, sc),
					Parallelism: sc.Parallelism,
				}
				m, err := run.Simulate(ctx)
				if err != nil {
					return nil, err
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
				if progress != nil {
					fmt.Fprintf(progress, "matrix: %s/%s/%s served %d/%d\n",
						sc.Name, gen.Name(), name, m.Accepted, m.TotalTasks)
				}
			}
			if progress != nil {
				fmt.Fprintf(progress, "matrix: %s\n", forecastUse(sc.Name+"/"+gen.Name(), res))
			}
		}
	}
	return cells, nil
}

// WriteMatrixJSON persists cells as BENCH_matrix.json.
func WriteMatrixJSON(path string, cells []MatrixCell) error {
	raw, err := json.MarshalIndent(MatrixFile{Note: matrixNote, Cells: cells}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// LoadMatrix reads a matrix file written by WriteMatrixJSON.
func LoadMatrix(path string) (MatrixFile, error) {
	var f MatrixFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("experiments: parse %s: %w", path, err)
	}
	return f, nil
}

// WriteMatrixMD renders the human-readable MATRIX.md: one table per
// (scale, generator) block, assigners as rows.
func WriteMatrixMD(w io.Writer, cells []MatrixCell) {
	fmt.Fprintf(w, "# Benchmark matrix\n\n")
	fmt.Fprintf(w, "Scenario generators × assigner zoo, every cell one seeded deterministic\n")
	fmt.Fprintf(w, "simulation (see EXPERIMENTS.md §matrix). Regenerate with `make matrix`;\n")
	fmt.Fprintf(w, "CI gates smoke-scale drift with `make matrix-check`.\n")
	type key struct{ scale, gen string }
	var order []key
	seen := map[key]bool{}
	for _, c := range cells {
		k := key{c.Scale, c.Generator}
		if !seen[k] {
			seen[k] = true
			order = append(order, k)
		}
	}
	for _, k := range order {
		fmt.Fprintf(w, "\n## %s · %s\n\n", k.scale, k.gen)
		fmt.Fprintf(w, "| assigner | served | total | completion | rejection | cost km | mean MR | off-window | budget denied | spent km |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|\n")
		for _, c := range cells {
			if c.Scale != k.scale || c.Generator != k.gen {
				continue
			}
			fmt.Fprintf(w, "| %s | %d | %d | %.3f | %.3f | %.3f | %.3f | %d | %d | %.1f |\n",
				c.Assigner, c.Served, c.TotalTasks, c.Completion, c.Rejection,
				c.AvgCostKM, c.MeanMR, c.OffWindow, c.BudgetDenied, c.BudgetSpentKM)
		}
	}
}

// Per-metric drift tolerances of CheckMatrix. Counts and rates are fully
// seed-determined, so the slack only absorbs cross-architecture float
// differences (Go may fuse multiply-adds on some platforms); on the same
// architecture a drift is a behaviour change.
const (
	matrixCountRelTol = 0.02 // counts: 2% relative…
	matrixCountAbsTol = 2.0  // …with ±2 absolute slack
	matrixRateAbsTol  = 0.02 // completion/rejection/MR: ±0.02 absolute
	matrixCostRelTol  = 0.05 // cost & spend: 5% relative…
	matrixCostAbsTol  = 0.10 // …with small absolute slack
)

func countDrift(base, cur int) bool {
	d := math.Abs(float64(cur - base))
	return d > matrixCountAbsTol && d > matrixCountRelTol*math.Abs(float64(base))
}

func rateDrift(base, cur float64) bool {
	return math.Abs(cur-base) > matrixRateAbsTol
}

func costDrift(base, cur float64) bool {
	d := math.Abs(cur - base)
	return d > matrixCostAbsTol && d > matrixCostRelTol*math.Abs(base)
}

// CheckMatrix diffs a fresh run against the committed matrix, cell by cell,
// restricted to the scales actually present in fresh. A fresh cell missing
// from the committed file (or vice versa, at a checked scale) fails the
// check: adding a generator or assigner requires regenerating the committed
// matrix in the same change. The report is for humans; ok gates the exit
// code.
func CheckMatrix(committed MatrixFile, fresh []MatrixCell) (report string, ok bool) {
	type key struct{ scale, gen, alg string }
	scales := map[string]bool{}
	for _, c := range fresh {
		scales[c.Scale] = true
	}
	base := map[key]MatrixCell{}
	for _, c := range committed.Cells {
		if scales[c.Scale] {
			base[key{c.Scale, c.Generator, c.Assigner}] = c
		}
	}
	ok = true
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %16s %16s %16s  verdict\n", "cell", "served", "completion", "cost km")
	for _, c := range fresh {
		k := key{c.Scale, c.Generator, c.Assigner}
		bl, have := base[k]
		name := fmt.Sprintf("%s/%s/%s", c.Scale, c.Generator, c.Assigner)
		if !have {
			fmt.Fprintf(&b, "%-28s %16d %16.3f %16.3f  MISSING from committed matrix — run `make matrix`\n",
				name, c.Served, c.Completion, c.AvgCostKM)
			ok = false
			continue
		}
		delete(base, k)
		var drifts []string
		check := func(metric string, drifted bool, base, cur string) {
			if drifted {
				drifts = append(drifts, fmt.Sprintf("%s %s -> %s", metric, base, cur))
			}
		}
		check("total", countDrift(bl.TotalTasks, c.TotalTasks), fmt.Sprint(bl.TotalTasks), fmt.Sprint(c.TotalTasks))
		check("assigned", countDrift(bl.Assigned, c.Assigned), fmt.Sprint(bl.Assigned), fmt.Sprint(c.Assigned))
		check("served", countDrift(bl.Served, c.Served), fmt.Sprint(bl.Served), fmt.Sprint(c.Served))
		check("completion", rateDrift(bl.Completion, c.Completion), fmt.Sprintf("%.3f", bl.Completion), fmt.Sprintf("%.3f", c.Completion))
		check("rejection", rateDrift(bl.Rejection, c.Rejection), fmt.Sprintf("%.3f", bl.Rejection), fmt.Sprintf("%.3f", c.Rejection))
		check("cost", costDrift(bl.AvgCostKM, c.AvgCostKM), fmt.Sprintf("%.3f", bl.AvgCostKM), fmt.Sprintf("%.3f", c.AvgCostKM))
		check("mean_mr", rateDrift(bl.MeanMR, c.MeanMR), fmt.Sprintf("%.3f", bl.MeanMR), fmt.Sprintf("%.3f", c.MeanMR))
		check("off_window", countDrift(bl.OffWindow, c.OffWindow), fmt.Sprint(bl.OffWindow), fmt.Sprint(c.OffWindow))
		check("budget_denied", countDrift(bl.BudgetDenied, c.BudgetDenied), fmt.Sprint(bl.BudgetDenied), fmt.Sprint(c.BudgetDenied))
		check("budget_spent", costDrift(bl.BudgetSpentKM, c.BudgetSpentKM), fmt.Sprintf("%.1f", bl.BudgetSpentKM), fmt.Sprintf("%.1f", c.BudgetSpentKM))
		verdict := "ok"
		if len(drifts) > 0 {
			verdict = "DRIFT: " + strings.Join(drifts, "; ")
			ok = false
		}
		fmt.Fprintf(&b, "%-28s %7d -> %5d %8.3f -> %5.3f %8.3f -> %5.3f  %s\n",
			name, bl.Served, c.Served, bl.Completion, c.Completion, bl.AvgCostKM, c.AvgCostKM, verdict)
	}
	if len(base) > 0 {
		var missing []string
		for k := range base {
			missing = append(missing, fmt.Sprintf("%s/%s/%s", k.scale, k.gen, k.alg))
		}
		sort.Strings(missing)
		fmt.Fprintf(&b, "committed cells not produced by the fresh run: %s\n", strings.Join(missing, ", "))
		ok = false
	}
	return b.String(), ok
}

// WriteMatrixTable renders cells with aligned columns for terminal output.
func WriteMatrixTable(w io.Writer, cells []MatrixCell) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scale\tgenerator\tassigner\tserved\ttotal\tcompletion\trejection\tcost(km)\tmeanMR\toff-window\tdenied\tspent(km)\tassign")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%d\t%d\t%.1f\t%.0fms\n",
			c.Scale, c.Generator, c.Assigner, c.Served, c.TotalTasks, c.Completion,
			c.Rejection, c.AvgCostKM, c.MeanMR, c.OffWindow, c.BudgetDenied, c.BudgetSpentKM, c.AssignMs)
	}
	tw.Flush()
}
