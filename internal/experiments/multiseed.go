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
	if len(runs) == 0 {
		return nil
	}
	n := len(runs[0])
	out := make([]PredAggRow, n)
	for i := 0; i < n; i++ {
		base := runs[0][i]
		var rmse, mae, mr, tt stats.Accumulator
		for _, run := range runs {
			r := run[i]
			if r.Label != base.Label || r.SeqIn != base.SeqIn || r.SeqOut != base.SeqOut {
				panic("experiments: seed runs disagree on configuration order")
			}
			rmse.Add(r.RMSE)
			mae.Add(r.MAE)
			mr.Add(r.MR)
			tt.Add(r.TTSec)
		}
		out[i] = PredAggRow{
			Label: base.Label, SeqIn: base.SeqIn, SeqOut: base.SeqOut,
			RMSE: rmse.Mean(), RMSEStd: rmse.Std(),
			MAE: mae.Mean(), MAEStd: mae.Std(),
			MR: mr.Mean(), MRStd: mr.Std(),
			TTSec: tt.Mean(),
		}
	}
	return out
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
	if len(runs) == 0 {
		return nil
	}
	n := len(runs[0])
	out := make([]AssignAggRow, n)
	for i := 0; i < n; i++ {
		base := runs[0][i]
		var comp, rej, cost, tt stats.Accumulator
		for _, run := range runs {
			r := run[i]
			if r.Algo != base.Algo || r.X != base.X {
				panic("experiments: seed runs disagree on row order")
			}
			comp.Add(r.Completion)
			rej.Add(r.Rejection)
			cost.Add(r.CostKM)
			tt.Add(r.TimeSec)
		}
		out[i] = AssignAggRow{
			Sweep: base.Sweep, X: base.X, Algo: base.Algo,
			Completion: comp.Mean(), CompletionStd: comp.Std(),
			Rejection: rej.Mean(), RejectionStd: rej.Std(),
			CostKM: cost.Mean(), CostStd: cost.Std(),
			TimeSec: tt.Mean(),
		}
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
	switch {
	case e.predRows != nil:
		runs, err := par.Map(ctx, len(seeds), sc.Parallelism, func(i int) ([]PredRow, error) {
			scs := sc
			scs.Seed = seeds[i]
			return e.predRows(ctx, scs)
		})
		if err != nil {
			return nil, err
		}
		writePredAgg(w, fmt.Sprintf("%s (mean ± std over %d seeds)", e.Title, len(seeds)), AggregatePred(runs))
	case e.assignRows != nil:
		// Each seed trains its own model sets, so the forecast memos are as
		// private to a seed as its models are.
		uses := make([][]ForecastUse, len(seeds))
		runs, err := par.Map(ctx, len(seeds), sc.Parallelism, func(i int) ([]AssignRow, error) {
			scs := sc
			scs.Seed = seeds[i]
			rows, u, err := e.assignRows(ctx, scs)
			for k := range u {
				u[k].Set = fmt.Sprintf("seed %d %s", seeds[i], u[k].Set)
			}
			uses[i] = u
			return rows, err
		})
		if err != nil {
			return nil, err
		}
		writeAssignAgg(w, fmt.Sprintf("%s (mean ± std over %d seeds)", e.Title, len(seeds)), AggregateAssign(runs))
		var all []ForecastUse
		for _, u := range uses {
			all = append(all, u...)
		}
		return all, nil
	}
	return nil, nil
}

func writePredAgg(w io.Writer, title string, rows []PredAggRow) {
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

func writeAssignAgg(w io.Writer, title string, rows []AssignAggRow) {
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
