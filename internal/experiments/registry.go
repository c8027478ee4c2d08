package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"github.com/spatialcrowd/tamp/internal/dataset"
)

// Experiment is one runnable table/figure reproduction: a title over one
// family of rows — the prediction tables, the assignment figures, or the
// design ablations.
type Experiment struct {
	ID    string
	Title string

	rows rowFamily
}

// rowFamily runs an experiment's rows and renders them as text, as CSV, or
// aggregated over seeds; family[R] implements it once for every row type.
type rowFamily interface {
	runText(ctx context.Context, sc Scale, w io.Writer, title string) ([]ForecastUse, error)
	runCSV(ctx context.Context, sc Scale, w io.Writer) ([]ForecastUse, error)
	runSeeds(ctx context.Context, sc Scale, seeds []int64, w io.Writer, title string) ([]ForecastUse, error)
}

// family is one row type: how to produce its rows, with what the
// simulations paid in forecasts, and its three renderings.
type family[R any] struct {
	rows  func(ctx context.Context, sc Scale) ([]R, []ForecastUse, error)
	table func(w io.Writer, title string, rows []R)
	csv   func(w io.Writer, rows []R) error
	agg   func(w io.Writer, title string, runs [][]R)
}

func (f family[R]) runText(ctx context.Context, sc Scale, w io.Writer, title string) ([]ForecastUse, error) {
	rows, uses, err := f.rows(ctx, sc)
	if err != nil {
		return nil, err
	}
	f.table(w, title, rows)
	return uses, nil
}

func (f family[R]) runCSV(ctx context.Context, sc Scale, w io.Writer) ([]ForecastUse, error) {
	rows, uses, err := f.rows(ctx, sc)
	if err != nil {
		return nil, err
	}
	return uses, f.csv(w, rows)
}

func (f family[R]) runSeeds(ctx context.Context, sc Scale, seeds []int64, w io.Writer, title string) ([]ForecastUse, error) {
	runs, uses, err := seedRuns(ctx, sc, seeds, f.rows)
	if err != nil {
		return nil, err
	}
	f.agg(w, title, runs)
	return uses, nil
}

// Run executes the experiment and writes the paper-style text rendering.
// Cancelling ctx abandons the run and returns ctx.Err(). Run, RunCSV and
// RunSeeds also return what the experiment's simulations paid in forecasts,
// one entry per model set it trained (none for the prediction tables).
func (e Experiment) Run(ctx context.Context, sc Scale, w io.Writer) ([]ForecastUse, error) {
	if e.rows == nil {
		return nil, nil
	}
	return e.rows.runText(ctx, sc, w, e.Title)
}

// RunCSV executes the experiment and writes machine-readable CSV.
func (e Experiment) RunCSV(ctx context.Context, sc Scale, w io.Writer) ([]ForecastUse, error) {
	if e.rows == nil {
		return nil, fmt.Errorf("experiments: %s has no runner", e.ID)
	}
	return e.rows.runCSV(ctx, sc, w)
}

func predExp(id, title string, kind dataset.Kind, run func(context.Context, dataset.Kind, Scale) ([]PredRow, error)) Experiment {
	return Experiment{ID: id, Title: title, rows: family[PredRow]{
		rows: func(ctx context.Context, sc Scale) ([]PredRow, []ForecastUse, error) {
			rows, err := run(ctx, kind, sc)
			return rows, nil, err
		},
		table: WritePredTable, csv: WritePredCSV, agg: writePredAgg,
	}}
}

func assignExp(id, title string, kind dataset.Kind, sweep SweepKind) Experiment {
	return Experiment{ID: id, Title: title, rows: family[AssignRow]{
		rows: func(ctx context.Context, sc Scale) ([]AssignRow, []ForecastUse, error) {
			return RunAssignmentSweep(ctx, kind, sweep, sc)
		},
		table: WriteAssignSeries, csv: WriteAssignCSV, agg: writeAssignAgg,
	}}
}

func ablationExp(id, title string, rows func(context.Context, Scale) ([]AblationRow, []ForecastUse, error)) Experiment {
	return Experiment{ID: id, Title: title, rows: family[AblationRow]{
		rows: rows, table: WriteAblationTable, csv: WriteAblationCSV, agg: writeAblationAgg,
	}}
}

// Registry maps experiment ids (table4, fig6, …) to their runners, covering
// every table and figure of the paper's evaluation, the design ablations
// and the benchmark matrix.
var Registry = map[string]Experiment{
	"table4": predExp("table4",
		"Table IV: clustering algorithm × factor ablation (workload 1)",
		dataset.Workload1, RunClusterAblation),
	"table5": predExp("table5",
		"Table V: effect of seq_in and seq_out (workload 1)",
		dataset.Workload1, RunSeqSweep),
	"table6": predExp("table6",
		"Table VI: clustering algorithm × factor ablation (workload 2)",
		dataset.Workload2, RunClusterAblation),
	"table7": predExp("table7",
		"Table VII: effect of seq_in and seq_out (workload 2)",
		dataset.Workload2, RunSeqSweep),
	"fig6": assignExp("fig6",
		"Fig. 6: effect of worker detour d (workload 1)",
		dataset.Workload1, SweepDetour),
	"fig7": assignExp("fig7",
		"Fig. 7: effect of the number of spatial tasks (workload 1)",
		dataset.Workload1, SweepTasks),
	"fig8": assignExp("fig8",
		"Fig. 8: effect of task valid time (workload 1)",
		dataset.Workload1, SweepValid),
	"fig9": assignExp("fig9",
		"Fig. 9: effect of worker detour d (workload 2)",
		dataset.Workload2, SweepDetour),
	"fig10": assignExp("fig10",
		"Fig. 10: effect of the number of spatial tasks (workload 2)",
		dataset.Workload2, SweepTasks),
	"fig11": assignExp("fig11",
		"Fig. 11: effect of task valid time (workload 2)",
		dataset.Workload2, SweepValid),
	"ablations": ablationExp("ablations",
		"Design-choice ablations at the default setting (workload 1)",
		func(ctx context.Context, sc Scale) ([]AblationRow, []ForecastUse, error) {
			return RunDesignAblations(ctx, dataset.Workload1, sc)
		}),
	"matrix": {ID: "matrix",
		Title: "Benchmark matrix: scenario generators × assigner zoo (workload 1)",
		rows: family[MatrixCell]{
			rows: func(ctx context.Context, sc Scale) ([]MatrixCell, []ForecastUse, error) {
				return RunMatrix(ctx, []Scale{sc})
			},
			table: WriteMatrixTable, csv: WriteMatrixCSV, agg: writeMatrixAgg,
		}},
}

// IDs returns the registered experiment ids in a stable order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Describe writes the experiment catalogue.
func Describe(w io.Writer) {
	for _, id := range IDs() {
		fmt.Fprintf(w, "%-8s %s\n", id, Registry[id].Title)
	}
}
