package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"github.com/spatialcrowd/tamp/internal/dataset"
)

// Experiment is one runnable table/figure reproduction. Exactly one of the
// row producers is set, depending on whether the experiment measures the
// prediction stage (tables), the assignment stage (figures), or the design
// ablations.
type Experiment struct {
	ID    string
	Title string

	predRows     func(ctx context.Context, sc Scale) ([]PredRow, error)
	assignRows   func(ctx context.Context, sc Scale) ([]AssignRow, []ForecastUse, error)
	ablationRows func(ctx context.Context, sc Scale) ([]AblationRow, []ForecastUse, error)
}

// Run executes the experiment and writes the paper-style text rendering.
// Cancelling ctx abandons the run and returns ctx.Err(). Run, RunCSV and
// RunSeeds also return what the experiment's simulations paid in forecasts,
// one entry per model set it trained (none for the prediction tables).
func (e Experiment) Run(ctx context.Context, sc Scale, w io.Writer) ([]ForecastUse, error) {
	switch {
	case e.predRows != nil:
		rows, err := e.predRows(ctx, sc)
		if err != nil {
			return nil, err
		}
		WritePredTable(w, e.Title, rows)
	case e.assignRows != nil:
		rows, uses, err := e.assignRows(ctx, sc)
		if err != nil {
			return nil, err
		}
		WriteAssignSeries(w, e.Title, rows)
		return uses, nil
	case e.ablationRows != nil:
		rows, uses, err := e.ablationRows(ctx, sc)
		if err != nil {
			return nil, err
		}
		WriteAblationTable(w, e.Title, rows)
		return uses, nil
	}
	return nil, nil
}

// RunCSV executes the experiment and writes machine-readable CSV.
func (e Experiment) RunCSV(ctx context.Context, sc Scale, w io.Writer) ([]ForecastUse, error) {
	switch {
	case e.predRows != nil:
		rows, err := e.predRows(ctx, sc)
		if err != nil {
			return nil, err
		}
		return nil, WritePredCSV(w, rows)
	case e.assignRows != nil:
		rows, uses, err := e.assignRows(ctx, sc)
		if err != nil {
			return nil, err
		}
		return uses, WriteAssignCSV(w, rows)
	}
	return nil, fmt.Errorf("experiments: %s has no runner", e.ID)
}

func predExp(id, title string, kind dataset.Kind, run func(context.Context, dataset.Kind, Scale) ([]PredRow, error)) Experiment {
	return Experiment{ID: id, Title: title,
		predRows: func(ctx context.Context, sc Scale) ([]PredRow, error) { return run(ctx, kind, sc) }}
}

func assignExp(id, title string, kind dataset.Kind, sweep SweepKind) Experiment {
	return Experiment{ID: id, Title: title,
		assignRows: func(ctx context.Context, sc Scale) ([]AssignRow, []ForecastUse, error) {
			return RunAssignmentSweep(ctx, kind, sweep, sc)
		}}
}

// Registry maps experiment ids (table4, fig6, …) to their runners, covering
// every table and figure of the paper's evaluation.
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
	"ablations": {
		ID:    "ablations",
		Title: "Design-choice ablations at the default setting (workload 1)",
		ablationRows: func(ctx context.Context, sc Scale) ([]AblationRow, []ForecastUse, error) {
			return RunDesignAblations(ctx, dataset.Workload1, sc)
		},
	},
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
