package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"github.com/spatialcrowd/tamp/internal/par"
	"github.com/spatialcrowd/tamp/internal/stats"
)

// PredAggRow is one prediction-experiment configuration aggregated over
// several seeds: mean and standard deviation per metric.
type PredAggRow struct {
	Label         string
	SeqIn, SeqOut int
	RMSE, RMSEStd float64
	MAE, MAEStd   float64
	MR, MRStd     float64
	TTSec         float64
}

// AggregatePred combines per-seed prediction rows (each run must produce
// the same configurations in the same order) into mean ± std rows.
// It panics if the runs disagree on configuration order.
func AggregatePred(runs [][]PredRow) []PredAggRow {
	return aggregate(runs,
		func(r PredRow) PredRow { return PredRow{Label: r.Label, SeqIn: r.SeqIn, SeqOut: r.SeqOut} },
		func(r PredRow) []float64 { return []float64{r.RMSE, r.MAE, r.MR, r.TTSec} },
		func(r PredRow, a []stats.Accumulator) PredAggRow {
			return PredAggRow{
				Label: r.Label, SeqIn: r.SeqIn, SeqOut: r.SeqOut,
				RMSE: a[0].Mean(), RMSEStd: a[0].Std(),
				MAE: a[1].Mean(), MAEStd: a[1].Std(),
				MR: a[2].Mean(), MRStd: a[2].Std(),
				TTSec: a[3].Mean(),
			}
		})
}

// AssignAggRow is one (sweep point, algorithm) aggregated over seeds.
type AssignAggRow struct {
	Sweep                     string
	X                         float64
	Algo                      string
	Completion, CompletionStd float64
	Rejection, RejectionStd   float64
	CostKM, CostStd           float64
	TimeSec                   float64
}

// AggregateAssign combines per-seed assignment rows into mean ± std rows.
// It panics if the runs disagree on row order.
func AggregateAssign(runs [][]AssignRow) []AssignAggRow {
	return aggregate(runs,
		func(r AssignRow) AssignRow { return AssignRow{X: r.X, Algo: r.Algo} },
		func(r AssignRow) []float64 { return []float64{r.Completion, r.Rejection, r.CostKM, r.TimeSec} },
		func(r AssignRow, a []stats.Accumulator) AssignAggRow {
			return AssignAggRow{
				Sweep: r.Sweep, X: r.X, Algo: r.Algo,
				Completion: a[0].Mean(), CompletionStd: a[0].Std(),
				Rejection: a[1].Mean(), RejectionStd: a[1].Std(),
				CostKM: a[2].Mean(), CostStd: a[2].Std(),
				TimeSec: a[3].Mean(),
			}
		})
}

// AblationAggRow is one design-choice variant aggregated over seeds.
type AblationAggRow struct {
	Group, Variant            string
	Completion, CompletionStd float64
	Rejection, RejectionStd   float64
	CostKM, CostStd           float64
	MR, MRStd                 float64
}

// AggregateAblation combines per-seed ablation rows into mean ± std rows.
// It panics if the runs disagree on row order.
func AggregateAblation(runs [][]AblationRow) []AblationAggRow {
	return aggregate(runs,
		func(r AblationRow) AblationRow { return AblationRow{Group: r.Group, Variant: r.Variant} },
		func(r AblationRow) []float64 { return []float64{r.Completion, r.Rejection, r.CostKM, r.MR} },
		func(r AblationRow, a []stats.Accumulator) AblationAggRow {
			return AblationAggRow{
				Group: r.Group, Variant: r.Variant,
				Completion: a[0].Mean(), CompletionStd: a[0].Std(),
				Rejection: a[1].Mean(), RejectionStd: a[1].Std(),
				CostKM: a[2].Mean(), CostStd: a[2].Std(),
				MR: a[3].Mean(), MRStd: a[3].Std(),
			}
		})
}

// aggregate folds per-seed runs row by row into mean ± std rows: every
// run's row i must have the first run's key, values lists the metrics
// accumulated across seeds, and fold builds the aggregated row from the
// first run's row and one accumulator per metric. It panics if the runs
// disagree on row order.
func aggregate[R comparable, A any](runs [][]R, key func(R) R, values func(R) []float64, fold func(R, []stats.Accumulator) A) []A {
	if len(runs) == 0 {
		return nil
	}
	out := make([]A, len(runs[0]))
	for i, base := range runs[0] {
		acc := make([]stats.Accumulator, len(values(base)))
		for _, run := range runs {
			if key(run[i]) != key(base) {
				panic("experiments: seed runs disagree on row order")
			}
			for k, v := range values(run[i]) {
				acc[k].Add(v)
			}
		}
		out[i] = fold(base, acc)
	}
	return out
}

// RunSeeds executes the experiment once per seed (replacing the scale's
// seed) and writes mean ± std rows. Single-seed calls fall back to the
// plain rendering.
//
// Seed runs are independent end to end (each generates its own workload),
// so they fan out on a pool of sc.Parallelism goroutines via par.Map; the
// per-seed row slices come back in seed order, keeping the aggregation —
// and its floating-point reduction — identical at every parallelism level.
func (e Experiment) RunSeeds(ctx context.Context, sc Scale, seeds []int64, w io.Writer) ([]ForecastUse, error) {
	if len(seeds) <= 1 {
		if len(seeds) == 1 {
			sc.Seed = seeds[0]
		}
		return e.Run(ctx, sc, w)
	}
	if e.rows == nil {
		return nil, nil
	}
	return e.rows.runSeeds(ctx, sc, seeds, w, fmt.Sprintf("%s (mean ± std over %d seeds)", e.Title, len(seeds)))
}

// seedRuns runs rows once per seed and returns the per-seed rows in seed
// order with every seed's forecast use, its set named after the seed: each
// seed trains its own model sets, so the forecast memos are as private to a
// seed as its models are.
func seedRuns[R any](ctx context.Context, sc Scale, seeds []int64, rows func(context.Context, Scale) ([]R, []ForecastUse, error)) ([][]R, []ForecastUse, error) {
	uses := make([][]ForecastUse, len(seeds))
	runs, err := par.Map(ctx, len(seeds), sc.Parallelism, func(i int) ([]R, error) {
		scs := sc
		scs.Seed = seeds[i]
		rs, u, err := rows(ctx, scs)
		for k := range u {
			u[k].Set = fmt.Sprintf("seed %d %s", seeds[i], u[k].Set)
		}
		uses[i] = u
		return rs, err
	})
	if err != nil {
		return nil, nil, err
	}
	var all []ForecastUse
	for _, u := range uses {
		all = append(all, u...)
	}
	return runs, all, nil
}

func writePredAgg(w io.Writer, title string, runs [][]PredRow) {
	rows := AggregatePred(runs)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\tseq_in\tseq_out\tRMSE\tMAE\tMR\tTT(s)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.4f±%.4f\t%.4f±%.4f\t%.4f±%.4f\t%.1f\n",
			r.Label, r.SeqIn, r.SeqOut, r.RMSE, r.RMSEStd, r.MAE, r.MAEStd, r.MR, r.MRStd, r.TTSec)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

func writeAssignAgg(w io.Writer, title string, runs [][]AssignRow) {
	rows := AggregateAssign(runs)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "x\talgo\tcompletion\trejection\tcost(km)\ttime(s)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%g\t%s\t%.3f±%.3f\t%.3f±%.3f\t%.3f±%.3f\t%.3f\n",
			r.X, r.Algo, r.Completion, r.CompletionStd, r.Rejection, r.RejectionStd,
			r.CostKM, r.CostStd, r.TimeSec)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

func writeAblationAgg(w io.Writer, title string, runs [][]AblationRow) {
	rows := AggregateAblation(runs)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "design choice\tvariant\tcompletion\trejection\tcost(km)\tMR")
	for _, r := range rows {
		comp, rej, cost, mr := "-", "-", "-", "-"
		if r.Completion > 0 || r.Rejection > 0 || r.CostKM > 0 {
			comp = fmt.Sprintf("%.3f±%.3f", r.Completion, r.CompletionStd)
			rej = fmt.Sprintf("%.3f±%.3f", r.Rejection, r.RejectionStd)
			cost = fmt.Sprintf("%.3f±%.3f", r.CostKM, r.CostStd)
		}
		if r.MR > 0 {
			mr = fmt.Sprintf("%.3f±%.3f", r.MR, r.MRStd)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", r.Group, r.Variant, comp, rej, cost, mr)
	}
	tw.Flush()
	fmt.Fprintln(w)
}
