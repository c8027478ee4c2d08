package experiments

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"github.com/spatialcrowd/tamp/internal/dataset"
)

func microScale() Scale {
	return Scale{
		Name:        "micro",
		NumWorkers:  8,
		NewWorkers:  1,
		TrainDays:   2,
		TestDays:    1,
		TicksPerDay: 40,
		TaskUnit:    40,
		Hidden:      6,
		MetaIters:   3,
		Population:  10,
		Generations: 8,
		Seed:        1,
	}
}

func TestRunClusterAblationRows(t *testing.T) {
	rows, err := RunClusterAblation(context.Background(), dataset.Workload1, microScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10 (2 algorithms × 5 factor sets)", len(rows))
	}
	gtmc, kmeans := 0, 0
	for _, r := range rows {
		if r.RMSE <= 0 || r.MAE <= 0 {
			t.Errorf("%s: non-positive errors %v/%v", r.Label, r.RMSE, r.MAE)
		}
		if r.MR < 0 || r.MR > 1 {
			t.Errorf("%s: MR = %v", r.Label, r.MR)
		}
		if r.TTSec <= 0 {
			t.Errorf("%s: TT = %v", r.Label, r.TTSec)
		}
		if strings.HasPrefix(r.Label, "GTMC") {
			gtmc++
		}
		if strings.HasPrefix(r.Label, "k-means") {
			kmeans++
		}
	}
	if gtmc != 5 || kmeans != 5 {
		t.Errorf("split = %d GTMC / %d k-means", gtmc, kmeans)
	}
}

func TestRunSeqSweepRows(t *testing.T) {
	rows, err := RunSeqSweep(context.Background(), dataset.Workload1, microScale())
	if err != nil {
		t.Fatal(err)
	}
	// 3 seq_in values + 2 extra seq_out values, × 4 algorithms.
	if len(rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(rows))
	}
	seen := map[string]int{}
	for _, r := range rows {
		seen[r.Label]++
	}
	for _, alg := range seqAlgorithms {
		if seen[alg] != 5 {
			t.Errorf("%s appears %d times, want 5", alg, seen[alg])
		}
	}
}

func TestRunAssignmentSweepRows(t *testing.T) {
	rows, _, err := RunAssignmentSweep(context.Background(), dataset.Workload1, SweepDetour, microScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 35 {
		t.Fatalf("rows = %d, want 35 (5 points × 7 algorithms)", len(rows))
	}
	for _, r := range rows {
		if r.Completion < 0 || r.Completion > 1 {
			t.Errorf("%s@%g: completion %v", r.Algo, r.X, r.Completion)
		}
		if r.Rejection < 0 || r.Rejection > 1 {
			t.Errorf("%s@%g: rejection %v", r.Algo, r.X, r.Rejection)
		}
		if r.Algo == "UB" && r.Rejection != 0 {
			t.Errorf("UB rejection = %v at %g", r.Rejection, r.X)
		}
	}
}

func TestSweepValues(t *testing.T) {
	sc := microScale()
	if got := sweepValues(SweepDetour, sc); len(got) != 5 || got[0] != 2 || got[4] != 10 {
		t.Errorf("detour sweep = %v", got)
	}
	if got := sweepValues(SweepTasks, sc); got[0] != float64(sc.TaskUnit) {
		t.Errorf("task sweep = %v", got)
	}
	if got := sweepValues(SweepValid, sc); len(got) != 5 {
		t.Errorf("valid sweep = %v", got)
	}
	if got := sweepValues(SweepKind(9), sc); got != nil {
		t.Errorf("unknown sweep = %v", got)
	}
}

func TestMakeAssignerPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MakeAssigner("bogus", Quick)
}

func TestScaleNamed(t *testing.T) {
	for _, name := range []string{"smoke", "quick", "full"} {
		sc, err := ScaleNamed(name)
		if err != nil || sc.Name != name {
			t.Errorf("ScaleNamed(%q) = %+v, %v", name, sc.Name, err)
		}
	}
	if _, err := ScaleNamed("warp"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table4", "table5", "table6", "table7",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "ablations", "matrix"}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Registry), len(want))
	}
	for _, id := range want {
		e, ok := Registry[id]
		if !ok {
			t.Fatalf("missing experiment %s", id)
		}
		if e.ID != id || e.Title == "" {
			t.Errorf("experiment %s malformed", id)
		}
		if e.rows == nil {
			t.Errorf("experiment %s has no rows", id)
		}
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Errorf("IDs() = %v", ids)
	}
	var buf bytes.Buffer
	Describe(&buf)
	if !strings.Contains(buf.String(), "Table IV") {
		t.Error("Describe output missing titles")
	}
}

func TestWriters(t *testing.T) {
	var buf bytes.Buffer
	WritePredTable(&buf, "T", []PredRow{{Label: "X", SeqIn: 5, SeqOut: 1, RMSE: 1, MAE: 0.5, MR: 0.4, TTSec: 2}})
	s := buf.String()
	if !strings.Contains(s, "RMSE") || !strings.Contains(s, "0.4000") {
		t.Errorf("pred table output:\n%s", s)
	}
	buf.Reset()
	WriteAssignSeries(&buf, "F", []AssignRow{
		{Sweep: "d", X: 2, Algo: "PPI", Completion: 0.5, Rejection: 0.1, CostKM: 1, TimeSec: 0.2},
		{Sweep: "d", X: 4, Algo: "PPI", Completion: 0.6, Rejection: 0.1, CostKM: 1.2, TimeSec: 0.25},
	})
	s = buf.String()
	for _, want := range []string{"completion rate", "rejection rate", "worker cost", "running time", "PPI"} {
		if !strings.Contains(s, want) {
			t.Errorf("series output missing %q:\n%s", want, s)
		}
	}
}

// TestRegistrySmokeQuickExperiment runs one registry entry end to end at
// micro scale to catch wiring regressions.
func TestRegistrySmokeQuickExperiment(t *testing.T) {
	var buf bytes.Buffer
	Registry["fig6"].Run(context.Background(), microScale(), &buf)
	if !strings.Contains(buf.String(), "Fig. 6") {
		t.Errorf("fig6 output:\n%s", buf.String())
	}
}

func TestCSVWriters(t *testing.T) {
	var buf bytes.Buffer
	err := WritePredCSV(&buf, []PredRow{{Label: "GTMC / Sim_d", SeqIn: 5, SeqOut: 1, RMSE: 1.5, MAE: 1.2, MR: 0.45, TTSec: 3.3}})
	if err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "config,seq_in") || !strings.Contains(s, "GTMC / Sim_d,5,1,1.5") {
		t.Errorf("pred CSV:\n%s", s)
	}
	buf.Reset()
	err = WriteAssignCSV(&buf, []AssignRow{{Sweep: "d(km)", X: 6, Algo: "PPI", Completion: 0.6, Rejection: 0.1, CostKM: 2.2, TimeSec: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	s = buf.String()
	if !strings.Contains(s, "sweep,x,algo") || !strings.Contains(s, "d(km),6.000000,PPI") {
		t.Errorf("assign CSV:\n%s", s)
	}
}

func TestRunCSVSmoke(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Registry["fig6"].RunCSV(context.Background(), microScale(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PPI") {
		t.Error("fig6 CSV missing algorithms")
	}
	var empty Experiment
	if _, err := empty.RunCSV(context.Background(), microScale(), &buf); err == nil {
		t.Error("empty experiment should error")
	}
}

func TestAggregatePred(t *testing.T) {
	runs := [][]PredRow{
		{{Label: "A", SeqIn: 5, SeqOut: 1, RMSE: 1, MAE: 0.8, MR: 0.4, TTSec: 2}},
		{{Label: "A", SeqIn: 5, SeqOut: 1, RMSE: 3, MAE: 1.2, MR: 0.6, TTSec: 4}},
	}
	agg := AggregatePred(runs)
	if len(agg) != 1 {
		t.Fatalf("agg rows = %d", len(agg))
	}
	r := agg[0]
	if r.RMSE != 2 || r.MR != 0.5 || r.TTSec != 3 {
		t.Errorf("means = %+v", r)
	}
	if r.RMSEStd == 0 || r.MRStd == 0 {
		t.Error("stds should be nonzero")
	}
	if AggregatePred(nil) != nil {
		t.Error("empty aggregate should be nil")
	}
}

func TestAggregatePredPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	AggregatePred([][]PredRow{
		{{Label: "A"}},
		{{Label: "B"}},
	})
}

func TestAggregateAssign(t *testing.T) {
	runs := [][]AssignRow{
		{{Sweep: "d", X: 2, Algo: "PPI", Completion: 0.4, Rejection: 0.2, CostKM: 1, TimeSec: 0.1}},
		{{Sweep: "d", X: 2, Algo: "PPI", Completion: 0.6, Rejection: 0.4, CostKM: 3, TimeSec: 0.3}},
	}
	agg := AggregateAssign(runs)
	if len(agg) != 1 {
		t.Fatalf("agg rows = %d", len(agg))
	}
	r := agg[0]
	if r.Completion != 0.5 || math.Abs(r.Rejection-0.3) > 1e-12 || r.CostKM != 2 {
		t.Errorf("means = %+v", r)
	}
}

func TestRunSeedsMultiSeedSmoke(t *testing.T) {
	var buf bytes.Buffer
	Registry["fig6"].RunSeeds(context.Background(), microScale(), []int64{1, 2}, &buf)
	if !strings.Contains(buf.String(), "mean ± std over 2 seeds") {
		t.Errorf("multi-seed output:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "±") {
		t.Error("no ± markers in aggregated output")
	}
	buf.Reset()
	Registry["fig6"].RunSeeds(context.Background(), microScale(), []int64{7}, &buf)
	if !strings.Contains(buf.String(), "Fig. 6") {
		t.Error("single-seed fallback broken")
	}
}

func TestRunDesignAblations(t *testing.T) {
	rows, _, err := RunDesignAblations(context.Background(), dataset.Workload1, microScale())
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]int{}
	for _, r := range rows {
		groups[r.Group]++
	}
	want := map[string]int{"loss": 2, "staging": 2, "radius": 3, "epsilon": 3, "clustering": 2}
	for g, n := range want {
		if groups[g] != n {
			t.Errorf("group %s has %d rows, want %d", g, groups[g], n)
		}
	}
	var buf bytes.Buffer
	WriteAblationTable(&buf, "T", rows)
	for _, s := range []string{"design choice", "task-oriented", "GTMC (game)"} {
		if !strings.Contains(buf.String(), s) {
			t.Errorf("ablation table missing %q", s)
		}
	}
}

func TestAblationsViaRegistry(t *testing.T) {
	var buf bytes.Buffer
	Registry["ablations"].Run(context.Background(), microScale(), &buf)
	if !strings.Contains(buf.String(), "epsilon") {
		t.Errorf("ablations output:\n%s", buf.String())
	}
	buf.Reset()
	if _, err := Registry["ablations"].RunCSV(context.Background(), microScale(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "group,variant,completion,rejection,cost_km,mr\n") {
		t.Errorf("ablations CSV:\n%s", buf.String())
	}
}

// stubAblations is an ablation experiment whose rows scale with the seed,
// so its output is known without training anything.
func stubAblations() Experiment {
	return ablationExp("stub", "Stub ablations",
		func(_ context.Context, sc Scale) ([]AblationRow, []ForecastUse, error) {
			v := float64(sc.Seed)
			return []AblationRow{
					{Group: "loss", Variant: "a", Completion: 0.1 * v, Rejection: 0.01 * v, CostKM: v},
					{Group: "clustering", Variant: "b", MR: 0.2 * v},
				},
				[]ForecastUse{{Set: "s", RolledOut: 3, Reused: 1}}, nil
		})
}

// TestAblationsRunInEveryMode: an ablation experiment writes CSV and a
// mean ± std table, as the prediction and assignment kinds do.
func TestAblationsRunInEveryMode(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	uses, err := stubAblations().RunCSV(ctx, Scale{Seed: 2}, &buf)
	if err != nil {
		t.Errorf("RunCSV: %v", err)
	}
	want := "group,variant,completion,rejection,cost_km,mr\n" +
		"loss,a,0.200000,0.020000,2.000000,0.000000\n" +
		"clustering,b,0.000000,0.000000,0.000000,0.400000\n"
	if buf.String() != want {
		t.Errorf("CSV =\n%s\nwant\n%s", buf.String(), want)
	}
	if len(uses) != 1 || uses[0].Set != "s" {
		t.Errorf("CSV forecast use = %v", uses)
	}

	buf.Reset()
	uses, err = stubAblations().RunSeeds(ctx, Scale{Parallelism: 1}, []int64{1, 3}, &buf)
	if err != nil {
		t.Fatalf("RunSeeds: %v", err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "Stub ablations (mean ± std over 2 seeds)\n") {
		t.Errorf("multi-seed title missing:\n%s", out)
	}
	var rows []string
	for _, line := range strings.Split(out, "\n") {
		rows = append(rows, strings.Join(strings.Fields(line), " "))
	}
	for _, row := range []string{
		"loss a 0.200±0.141 0.020±0.014 2.000±1.414 -",
		"clustering b - - - 0.400±0.283",
	} {
		if !strings.Contains(strings.Join(rows, "\n"), row) {
			t.Errorf("multi-seed table missing row %q:\n%s", row, out)
		}
	}
	if len(uses) != 2 || uses[0].Set != "seed 1 s" || uses[1].Set != "seed 3 s" {
		t.Errorf("multi-seed forecast uses = %v", uses)
	}
}
