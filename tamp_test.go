package tamp

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/replay"
)

func quickParams(kind WorkloadKind) WorkloadParams {
	p := DefaultWorkloadParams(kind)
	p.NumWorkers = 8
	p.NewWorkers = 1
	p.TrainDays = 2
	p.TestDays = 1
	p.TicksPerDay = 50
	p.NumTestTasks = 120
	p.NumPOIs = 60
	return p
}

func quickTrain() TrainOptions {
	return TrainOptions{SeqIn: 3, SeqOut: 1, Hidden: 6, MetaIters: 4, Seed: 3}
}

func TestEndToEndPipeline(t *testing.T) {
	ctx := context.Background()
	w := GenerateWorkload(quickParams(Workload1))
	pred, err := TrainPredictors(ctx, w, quickTrain())
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Models) != len(w.Workers) {
		t.Fatalf("models = %d, want %d", len(pred.Models), len(w.Workers))
	}
	m, err := Simulate(ctx, w, pred, NewPPI())
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalTasks != len(w.TestTasks) {
		t.Errorf("total tasks = %d", m.TotalTasks)
	}
	if m.Accepted == 0 {
		t.Error("end-to-end run completed nothing")
	}
	if m.CompletionRate() < 0 || m.CompletionRate() > 1 {
		t.Errorf("completion = %v", m.CompletionRate())
	}
}

// TestSecondSimulateRollsNothingOut is the `make memocheck` gate, exact and
// timing-free: two PPI simulations over one Predictors through the public
// facade. The second must find every forecast it asks for in the memo the
// first filled (Predictors.Forecasts) — zero rollouts by the run's own
// registry — and return the same metrics.
func TestSecondSimulateRollsNothingOut(t *testing.T) {
	w := GenerateWorkload(quickParams(Workload1))
	pred, err := TrainPredictors(context.Background(), w, quickTrain())
	if err != nil {
		t.Fatal(err)
	}
	simulate := func() (Metrics, int64, int64) {
		reg := obs.NewRegistry()
		m, err := Simulate(obs.WithRegistry(context.Background(), reg), w, pred, NewPPI())
		if err != nil {
			t.Fatal(err)
		}
		m.AssignTime = 0
		return m, reg.Counter("predict_cache_hits").Value(), reg.Counter("predict_cache_misses").Value()
	}
	first, _, rolledOut := simulate()
	if rolledOut == 0 {
		t.Fatal("the first simulation reported no rollout")
	}
	second, reused, again := simulate()
	if again != 0 || reused < rolledOut {
		t.Fatalf("second simulation: %d rolled out, %d reused; want 0 and at least the first pass's %d", again, reused, rolledOut)
	}
	if first != second {
		t.Fatalf("reusing forecasts changed the run:\n first:  %+v\n second: %+v", first, second)
	}
}

// shiftedModels keys models by the worker IDs a recorded log uses: the
// platform numbers workers from 1.
func shiftedModels(models map[int]*WorkerModel) map[int]*WorkerModel {
	out := make(map[int]*WorkerModel, len(models))
	for id, m := range models {
		out[id+1] = m
	}
	return out
}

// replayTraffic replays dir under PPI over models and returns the report
// and what the pass's memo rolled out and reused. Four goroutines forecast
// each batch, so the set memo is read from several at once.
func replayTraffic(t *testing.T, dir string, models map[int]*WorkerModel) (*replay.Report, int64, int64) {
	t.Helper()
	reg := obs.NewRegistry()
	rep, err := replay.Run(context.Background(), dir, replay.Options{Assigner: NewPPI(), Models: models, Parallelism: 4, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return rep, reg.Counter("predict_cache_misses").Value(), reg.Counter("predict_cache_hits").Value()
}

// TestReplayReadsTheSetMemoAndWritesNothing is the second `make memocheck`
// gate, exact and timing-free: a round of the benchmark's simulate workload
// — SimulateRecorded(PPI), replay.Run(PPI), Simulate(KM), SimulateChaos(PPI)
// — twice over one Predictors. The second time the three simulations roll
// out nothing; the replay, which reads the set's memo but never writes to
// it, rolls out exactly what it rolled out the first time; and the set
// memo's Len and Stats are the same before and after each replay. Over
// models without a set memo, or drawn from two sets, the replay is a pass
// memo of its own, as it always was: the same plans, and every window the
// set memo would have lent it rolled out.
func TestReplayReadsTheSetMemoAndWritesNothing(t *testing.T) {
	ctx := context.Background()
	w := GenerateWorkload(quickParams(Workload1))
	pred, err := TrainPredictors(ctx, w, quickTrain())
	if err != nil {
		t.Fatal(err)
	}
	models := shiftedModels(pred.Models)
	rolledOut := func(sim func(ctx context.Context) error) int64 {
		t.Helper()
		reg := obs.NewRegistry()
		if err := sim(obs.WithRegistry(ctx, reg)); err != nil {
			t.Fatal(err)
		}
		return reg.Counter("predict_cache_misses").Value()
	}
	type memoState struct {
		len                     int
		hits, misses, evictions int64
	}
	memo := func() memoState {
		h, m, e := pred.Forecasts.Stats()
		return memoState{pred.Forecasts.Len(), h, m, e}
	}
	var dir string
	round := func(n int) (sims [3]int64, rep *replay.Report, replayed, reused int64) {
		dir = filepath.Join(t.TempDir(), "log")
		sims[0] = rolledOut(func(ctx context.Context) error {
			_, err := SimulateRecorded(ctx, w, pred, NewPPI(), dir)
			return err
		})
		before := memo()
		rep, replayed, reused = replayTraffic(t, dir, models)
		if after := memo(); after != before {
			t.Fatalf("round %d: the replay changed the set memo: %+v before, %+v after", n, before, after)
		}
		sims[1] = rolledOut(func(ctx context.Context) error {
			_, err := Simulate(ctx, w, pred, NewKM())
			return err
		})
		sims[2] = rolledOut(func(ctx context.Context) error {
			_, err := SimulateChaos(ctx, w, pred, NewPPI(), FaultConfig{
				Seed: 1, WorkerChurn: 0.20, DropReport: 0.10, GPSNoise: 0.10, GPSNoiseCells: 1,
				PredictorFail: 0.05, DecisionDelay: 0.20, DecisionDelayTicks: 3,
			})
			return err
		})
		return sims, rep, replayed, reused
	}
	first, rep1, replayed1, reused1 := round(1)
	if first[0] == 0 || first[2] == 0 || reused1 == 0 {
		t.Fatalf("first round: simulations rolled out %v, the replay reused %d; the round is degenerate", first, reused1)
	}
	t.Logf("first round: simulations rolled out %v; the replay rolled out %d, reused %d", first, replayed1, reused1)
	second, _, replayed2, _ := round(2)
	if second != [3]int64{} {
		t.Fatalf("second round: the simulations rolled out %v, want none", second)
	}
	if replayed2 != replayed1 {
		t.Fatalf("the replay rolled out %d the second time, %d the first", replayed2, replayed1)
	}

	// The baseline: the same weights with no set memo.
	clones := map[int]*WorkerModel{}
	for id, m := range models {
		clones[id] = &WorkerModel{WorkerID: m.WorkerID, Model: m.Model.CloneModel(), Norm: m.Norm, SeqIn: m.SeqIn, SeqOut: m.SeqOut, MR: m.MR}
	}
	// A second set trained alike has the same weights and its own memo.
	twin, err := TrainPredictors(ctx, w, quickTrain())
	if err != nil {
		t.Fatal(err)
	}
	mixed := shiftedModels(twin.Models)
	for id, m := range models {
		if id%2 == 0 {
			mixed[id] = m
		}
	}
	alone, aloneRolled, aloneReused := replayTraffic(t, dir, clones)
	t.Logf("with no set memo the replay rolled out %d, reused %d", aloneRolled, aloneReused)
	if aloneRolled <= replayed1 || aloneRolled+aloneReused != replayed1+reused1 {
		t.Fatalf("alone the replay rolled out %d and reused %d; over the set, %d and %d", aloneRolled, aloneReused, replayed1, reused1)
	}
	for name, ms := range map[string]map[int]*WorkerModel{"the trained set": models, "two sets": mixed} {
		before := memo()
		rep, rolled, reused := replayTraffic(t, dir, ms)
		if !reflect.DeepEqual(rep.Batches, alone.Batches) || rep.Final.Digest() != alone.Final.Digest() || !reflect.DeepEqual(rep1.Batches, alone.Batches) {
			t.Fatalf("over %s the replay planned differently from a replay with no set memo", name)
		}
		if name == "two sets" && (rolled != aloneRolled || reused != aloneReused) {
			t.Fatalf("over two sets the replay rolled out %d and reused %d; alone, %d and %d", rolled, reused, aloneRolled, aloneReused)
		}
		if after := memo(); after != before {
			t.Fatalf("over %s the replay changed the set memo: %+v before, %+v after", name, before, after)
		}
	}
}

func TestAllAssignersRun(t *testing.T) {
	ctx := context.Background()
	w := GenerateWorkload(quickParams(Workload1))
	pred, err := TrainPredictors(ctx, w, quickTrain())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Assigner{NewPPI(), NewKM(), NewUB(), NewLB(), NewGGPSO(1)} {
		m, err := Simulate(ctx, w, pred, a)
		if err != nil {
			t.Fatal(err)
		}
		if m.Accepted > m.Assigned {
			t.Errorf("%s: accepted > assigned", a.Name())
		}
	}
}

func TestTrainAlgorithmsViaFacade(t *testing.T) {
	w := GenerateWorkload(quickParams(Workload2))
	for _, alg := range []string{AlgMAML, AlgCTML, AlgGTTAMLGT, AlgGTTAML} {
		opts := quickTrain()
		opts.Algorithm = alg
		pred, err := TrainPredictors(context.Background(), w, opts)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if pred.Trained.Algorithm != alg {
			t.Errorf("algorithm = %q, want %q", pred.Trained.Algorithm, alg)
		}
	}
}

func TestUnitConversions(t *testing.T) {
	if KMToCells(1) != 5 {
		t.Errorf("KMToCells(1) = %v", KMToCells(1))
	}
	if CellsToKM(5) != 1 {
		t.Errorf("CellsToKM(5) = %v", CellsToKM(5))
	}
}

func TestWorkloadDefaults(t *testing.T) {
	p := DefaultWorkloadParams(Workload1)
	if p.Kind != Workload1 || p.NumWorkers == 0 || p.NumTestTasks == 0 {
		t.Errorf("defaults = %+v", p)
	}
}
