package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/platform"
	"github.com/spatialcrowd/tamp/internal/predict"
)

// AssignRow is one (sweep point, algorithm) measurement of a Figs. 6–11
// experiment.
type AssignRow struct {
	Sweep      string  // axis label, e.g. "d(km)"
	X          float64 // sweep value
	Algo       string
	Completion float64
	Rejection  float64
	CostKM     float64
	TimeSec    float64
}

// SweepKind selects the x-axis of an assignment experiment.
type SweepKind int

// The three assignment sweeps of the evaluation.
const (
	SweepDetour SweepKind = iota // Figs. 6 / 9
	SweepTasks                   // Figs. 7 / 10
	SweepValid                   // Figs. 8 / 11
)

// ForecastUse is what the simulations over one trained model set paid in
// forecasts: the rollouts they computed, and the lookups an earlier
// simulation over the same set had already paid for (predict.Result.
// Forecasts). tampbench prints one line per model set.
type ForecastUse struct {
	Set               string
	RolledOut, Reused int64
}

func forecastUse(set string, res *predict.Result) ForecastUse {
	hits, misses, _ := res.Forecasts.Stats()
	return ForecastUse{Set: set, RolledOut: misses, Reused: hits}
}

func (u ForecastUse) String() string {
	return fmt.Sprintf("forecasts (%s models): %d rolled out, %d reused", u.Set, u.RolledOut, u.Reused)
}

// trainPredictors is the offline stage every experiment that simulates runs
// first. A variable so the shared-cache equivalence test can strip
// Result.Forecasts and have every run recompute its rollouts, the uncached
// reference.
var trainPredictors = predict.Train

// assignAlgos enumerates the seven compared algorithms of Figs. 6–11.
// PPI/KM/GGPSO use the models trained with the task-assignment-oriented
// loss; the -loss variants use plain-MSE models; UB and LB ignore models.
var assignAlgos = []string{"UB", "PPI", "PPI-loss", "GGPSO", "KM", "KM-loss", "LB"}

// RunAssignmentSweep reproduces one of Figs. 6–8 (workload 1) or Figs. 9–11
// (workload 2). Mobility models are trained once on the default setting —
// the paper's offline stage — and the online assignment is simulated per
// sweep point, every simulation over a model set sharing that set's forecast
// memo: the sweep points change detours, tasks and validity, not the traces
// the workers report, so a window is rolled out once per model set (and
// prediction horizon), not once per row.
func RunAssignmentSweep(ctx context.Context, kind dataset.Kind, sweep SweepKind, sc Scale) ([]AssignRow, []ForecastUse, error) {
	base := sc.params(kind)

	// Offline stage: two model sets, one per loss function.
	trainW := dataset.Generate(base)
	weighted, err := trainPredictors(ctx, trainW, predict.Options{
		WeightedLoss: true, Hidden: sc.Hidden, MetaIters: sc.MetaIters, Seed: sc.Seed,
		Parallelism: sc.Parallelism,
	})
	if err != nil {
		return nil, nil, err
	}
	mse, err := trainPredictors(ctx, trainW, predict.Options{
		WeightedLoss: false, Hidden: sc.Hidden, MetaIters: sc.MetaIters, Seed: sc.Seed,
		Parallelism: sc.Parallelism,
	})
	if err != nil {
		return nil, nil, err
	}

	var rows []AssignRow
	for _, x := range sweepValues(sweep, sc) {
		p := base
		label := ""
		switch sweep {
		case SweepDetour:
			p.DetourKM = x
			label = "d(km)"
		case SweepTasks:
			p.NumTestTasks = int(x)
			label = "#tasks"
		case SweepValid:
			p.ValidMin = int(x)
			p.ValidMax = int(x) + 1
			label = "valid"
		}
		w := dataset.Generate(p)
		for _, algo := range assignAlgos {
			pred := weighted
			if strings.HasSuffix(algo, "-loss") {
				pred = mse
			}
			run := platform.Run{
				Workload:    w,
				Models:      pred.Models,
				Forecasts:   pred.Forecasts,
				Assigner:    MakeAssigner(algo, sc),
				Parallelism: sc.Parallelism,
			}
			m, err := run.Simulate(ctx)
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, AssignRow{
				Sweep: label, X: x, Algo: algo,
				Completion: m.CompletionRate(),
				Rejection:  m.RejectionRate(),
				CostKM:     m.AvgCostKM(),
				TimeSec:    m.AssignTime.Seconds(),
			})
		}
	}
	return rows, []ForecastUse{forecastUse("weighted-loss", weighted), forecastUse("mse-loss", mse)}, nil
}

func sweepValues(sweep SweepKind, sc Scale) []float64 {
	switch sweep {
	case SweepDetour:
		return []float64{2, 4, 6, 8, 10}
	case SweepTasks:
		u := float64(sc.TaskUnit)
		return []float64{u, 2 * u, 3 * u, 4 * u, 5 * u}
	case SweepValid:
		return []float64{1, 2, 3, 4, 5}
	default:
		return nil
	}
}

// MakeAssigner returns the assigner an experiment calls algo, with sc's
// parallelism and GGPSO's seed and effort; it panics on any other name.
func MakeAssigner(algo string, sc Scale) assign.Assigner {
	switch algo {
	case "UB":
		return assign.UB{Parallelism: sc.Parallelism}
	case "LB":
		return assign.LB{}
	case "PPI", "PPI-loss":
		return assign.PPI{A: predict.DefaultMatchRadius, Parallelism: sc.Parallelism}
	case "KM", "KM-loss":
		return assign.KM{Parallelism: sc.Parallelism}
	case "Greedy":
		return assign.Greedy{Parallelism: sc.Parallelism}
	case "GGPSO":
		return assign.GGPSO{Population: sc.Population, Generations: sc.Generations, Seed: sc.Seed}
	default:
		panic("experiments: unknown algorithm " + algo)
	}
}

// WriteAssignSeries renders assignment rows grouped per metric, matching
// the four panels of each evaluation figure.
func WriteAssignSeries(w io.Writer, title string, rows []AssignRow) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	metrics := []struct {
		name string
		get  func(AssignRow) float64
		fmt  string
	}{
		{"completion rate", func(r AssignRow) float64 { return r.Completion }, "%.3f"},
		{"rejection rate", func(r AssignRow) float64 { return r.Rejection }, "%.3f"},
		{"worker cost (km)", func(r AssignRow) float64 { return r.CostKM }, "%.3f"},
		{"running time (s)", func(r AssignRow) float64 { return r.TimeSec }, "%.3f"},
	}
	// Collect the x axis and algorithms preserving order.
	var xs []float64
	var algos []string
	seenX := map[float64]bool{}
	seenA := map[string]bool{}
	for _, r := range rows {
		if !seenX[r.X] {
			seenX[r.X] = true
			xs = append(xs, r.X)
		}
		if !seenA[r.Algo] {
			seenA[r.Algo] = true
			algos = append(algos, r.Algo)
		}
	}
	get := func(x float64, algo string) (AssignRow, bool) {
		for _, r := range rows {
			if r.X == x && r.Algo == algo {
				return r, true
			}
		}
		return AssignRow{}, false
	}
	for _, m := range metrics {
		fmt.Fprintf(w, "\n[%s]\n", m.name)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		header := "algo"
		for _, x := range xs {
			header += fmt.Sprintf("\t%g", x)
		}
		fmt.Fprintln(tw, header)
		for _, a := range algos {
			line := a
			for _, x := range xs {
				if r, ok := get(x, a); ok {
					line += fmt.Sprintf("\t"+m.fmt, m.get(r))
				} else {
					line += "\t-"
				}
			}
			fmt.Fprintln(tw, line)
		}
		tw.Flush()
	}
	fmt.Fprintln(w)
}
