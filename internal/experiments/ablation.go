package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/meta"
	"github.com/spatialcrowd/tamp/internal/platform"
	"github.com/spatialcrowd/tamp/internal/predict"
)

// AblationRow is one design-choice variant measured at the default
// experimental setting.
type AblationRow struct {
	Group      string // which design choice the variant probes
	Variant    string
	Completion float64
	Rejection  float64
	CostKM     float64
	MR         float64 // prediction MR where the variant retrains; else 0
}

// RunDesignAblations measures the design choices DESIGN.md §5 calls out,
// all at the Table III default point: the task-assignment-oriented loss vs
// MSE, PPI's staged matching vs one global KM, the matching radius a, the
// stage-2 batch size ε, and game-theoretic clustering vs k-means.
func RunDesignAblations(ctx context.Context, kind dataset.Kind, sc Scale) ([]AblationRow, []ForecastUse, error) {
	w := dataset.Generate(sc.params(kind))
	weighted, err := trainPredictors(ctx, w, predict.Options{
		WeightedLoss: true, Hidden: sc.Hidden, MetaIters: sc.MetaIters, Seed: sc.Seed,
		Parallelism: sc.Parallelism,
	})
	if err != nil {
		return nil, nil, err
	}
	mse, err := trainPredictors(ctx, w, predict.Options{
		WeightedLoss: false, Hidden: sc.Hidden, MetaIters: sc.MetaIters, Seed: sc.Seed,
		Parallelism: sc.Parallelism,
	})
	if err != nil {
		return nil, nil, err
	}

	simulate := func(pred *predict.Result, a assign.Assigner) (platform.Metrics, error) {
		run := platform.Run{
			Workload: w, Models: pred.Models, Forecasts: pred.Forecasts,
			Assigner: a, Parallelism: sc.Parallelism,
		}
		return run.Simulate(ctx)
	}
	row := func(group, variant string, m platform.Metrics, mr float64) AblationRow {
		return AblationRow{
			Group: group, Variant: variant,
			Completion: m.CompletionRate(), Rejection: m.RejectionRate(),
			CostKM: m.AvgCostKM(), MR: mr,
		}
	}

	var rows []AblationRow
	ppi := assign.PPI{A: predict.DefaultMatchRadius, Parallelism: sc.Parallelism}
	add := func(group, variant string, pred *predict.Result, a assign.Assigner, mr float64) error {
		m, err := simulate(pred, a)
		if err != nil {
			return err
		}
		rows = append(rows, row(group, variant, m, mr))
		return nil
	}

	// Loss function (PPI vs PPI-loss).
	if err := add("loss", "task-oriented (Eq. 6-7)", weighted, ppi, weighted.Eval.MR); err != nil {
		return nil, nil, err
	}
	if err := add("loss", "plain MSE", mse, ppi, mse.Eval.MR); err != nil {
		return nil, nil, err
	}
	// Staged confidence matching vs one global KM.
	if err := add("staging", "staged PPI", weighted, ppi, 0); err != nil {
		return nil, nil, err
	}
	if err := add("staging", "single global KM", weighted, assign.KM{Parallelism: sc.Parallelism}, 0); err != nil {
		return nil, nil, err
	}
	// Matching radius a.
	for _, a := range []float64{0.5, 1.5, 3.0} {
		if err := add("radius", fmt.Sprintf("a=%.1f cells", a), weighted,
			assign.PPI{A: a, Parallelism: sc.Parallelism}, 0); err != nil {
			return nil, nil, err
		}
	}
	// Stage-2 batch size ε.
	for _, eps := range []int{1, 8, 64} {
		if err := add("epsilon", fmt.Sprintf("eps=%d", eps), weighted,
			assign.PPI{A: predict.DefaultMatchRadius, Epsilon: eps, Parallelism: sc.Parallelism}, 0); err != nil {
			return nil, nil, err
		}
	}
	// Game-theoretic clustering vs plain multi-level k-means (MR only; the
	// weighted run above is GTTAML already).
	gt, err := predict.Train(ctx, w, predict.Options{
		Algorithm: meta.AlgGTTAMLGT, WeightedLoss: true,
		Hidden: sc.Hidden, MetaIters: sc.MetaIters, Seed: sc.Seed,
		Parallelism: sc.Parallelism,
	})
	if err != nil {
		return nil, nil, err
	}
	rows = append(rows,
		AblationRow{Group: "clustering", Variant: "GTMC (game)", MR: weighted.Eval.MR},
		AblationRow{Group: "clustering", Variant: "k-means", MR: gt.Eval.MR},
	)
	return rows, []ForecastUse{forecastUse("weighted-loss", weighted), forecastUse("mse-loss", mse)}, nil
}

// WriteAblationTable renders ablation rows grouped by design choice.
func WriteAblationTable(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "design choice\tvariant\tcompletion\trejection\tcost(km)\tMR")
	for _, r := range rows {
		comp, rej, cost, mr := "-", "-", "-", "-"
		if r.Completion > 0 || r.Rejection > 0 || r.CostKM > 0 {
			comp = fmt.Sprintf("%.3f", r.Completion)
			rej = fmt.Sprintf("%.3f", r.Rejection)
			cost = fmt.Sprintf("%.3f", r.CostKM)
		}
		if r.MR > 0 {
			mr = fmt.Sprintf("%.3f", r.MR)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", r.Group, r.Variant, comp, rej, cost, mr)
	}
	tw.Flush()
	fmt.Fprintln(w)
}
