package platform

import (
	"reflect"
	"testing"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/scenario"
)

func scenarioParams() dataset.Params {
	p := dataset.Defaults(dataset.Workload1)
	p.Seed = 3
	p.NumWorkers = 8
	p.NewWorkers = 0
	p.TrainDays = 2
	p.TestDays = 1
	p.TicksPerDay = 48
	p.NumTestTasks = 100
	return p
}

// A fleet whose every shift plan is empty (never available) must produce no
// offers at all: the off-window skip fires, and nothing reaches the matcher.
func TestSimulateOffWindowFleetServesNothing(t *testing.T) {
	w := scenario.AvailabilityWindows{ShiftsPerDay: 0, DemandPeaks: 2, DemandAmp: 0.8}.Generate(scenarioParams())
	m := mustSimulate(t, &Run{Workload: w, Assigner: assign.Greedy{}})
	if m.Assigned != 0 || m.Accepted != 0 {
		t.Errorf("assigned %d / accepted %d on an all-off fleet, want 0/0", m.Assigned, m.Accepted)
	}
	if m.OffWindow == 0 {
		t.Error("OffWindow = 0, want every batch slot counted as off-shift")
	}
}

// The windowed workload must serve strictly less than the same fleet
// always-on, and account every skipped slot.
func TestSimulateWindowsReduceService(t *testing.T) {
	paper := scenario.Paper{}.Generate(scenarioParams())
	windowed := scenario.DefaultWindows().Generate(scenarioParams())
	mp := mustSimulate(t, &Run{Workload: paper, Assigner: assign.Greedy{}})
	mw := mustSimulate(t, &Run{Workload: windowed, Assigner: assign.Greedy{}})
	if mp.OffWindow != 0 {
		t.Errorf("paper workload counted %d off-window slots, want 0", mp.OffWindow)
	}
	if mw.OffWindow == 0 {
		t.Error("windowed workload counted no off-window slots")
	}
	if mw.Accepted == 0 {
		t.Error("windowed fleet served nothing; shifts should leave real capacity")
	}
}

// A zero per-tick allowance with the gate enabled is the degenerate
// no-budget platform: plans are still computed, but no offer is ever issued
// and nothing is spent.
func TestSimulateZeroBudgetIssuesNothing(t *testing.T) {
	w := scenario.BudgetRewards{RewardMin: 1, RewardMax: 5, PerTickKM: 0}.Generate(scenarioParams())
	m := mustSimulate(t, &Run{Workload: w, Assigner: assign.Greedy{}})
	if m.Assigned != 0 || m.Accepted != 0 {
		t.Errorf("assigned %d / accepted %d under a zero budget, want 0/0", m.Assigned, m.Accepted)
	}
	if m.BudgetSpentKM != 0 {
		t.Errorf("spent %v km under a zero budget", m.BudgetSpentKM)
	}
	if m.BudgetDenied == 0 {
		t.Error("BudgetDenied = 0, want the withheld plans accounted")
	}
}

// The gate must never spend past the horizon-wide allowance, and loosening
// the budget can only serve more.
func TestSimulateBudgetBoundsSpend(t *testing.T) {
	params := scenarioParams()
	tight := scenario.BudgetRewards{RewardMin: 1, RewardMax: 5, PerTickKM: 3}.Generate(params)
	loose := scenario.BudgetRewards{RewardMin: 1, RewardMax: 5, PerTickKM: 1e6}.Generate(params)
	mTight := mustSimulate(t, &Run{Workload: tight, Assigner: assign.Greedy{}})
	mLoose := mustSimulate(t, &Run{Workload: loose, Assigner: assign.Greedy{}})
	horizon := tight.Params.TestDays * tight.Params.TicksPerDay
	if capKM := 3 * float64(horizon); mTight.BudgetSpentKM > capKM {
		t.Errorf("spent %v km, horizon-wide cap is %v", mTight.BudgetSpentKM, capKM)
	}
	if mTight.Accepted > mLoose.Accepted {
		t.Errorf("tight budget served %d > loose budget %d", mTight.Accepted, mLoose.Accepted)
	}
	if mLoose.BudgetDenied != 0 {
		t.Errorf("effectively unbounded budget denied %d offers", mLoose.BudgetDenied)
	}
	if mTight.BudgetSpentKM == 0 || mLoose.BudgetSpentKM == 0 {
		t.Error("budgeted runs should record nonzero spend")
	}
}

// budgetGate unit semantics: descending reward-per-predicted-km order,
// deterministic tie-breaks, plan order preserved on the kept offers.
func TestBudgetGateOrdering(t *testing.T) {
	var m Metrics
	workers := []assign.Worker{
		{ID: 0, Loc: pt(0, 0), Predicted: pts(0, 0)},
		{ID: 1, Loc: pt(0, 0), Predicted: pts(0, 0)},
	}
	tasks := []assign.Task{
		{ID: 0, Loc: pt(0, 2), Reward: 1},  // rpc = 1/cost
		{ID: 1, Loc: pt(0, 2), Reward: 10}, // rpc = 10/cost: first
	}
	pairs := []assign.Pair{{Task: 0, Worker: 0}, {Task: 1, Worker: 1}}
	cost := assign.EstimatedDetourKM(&workers[0], &tasks[0])
	if cost <= 0 {
		t.Fatal("test geometry should have a positive predicted detour")
	}
	// Allowance covers exactly one offer: the high-reward task must win.
	kept := budgetGate(&m, pairs, tasks, workers, cost*1.5)
	if len(kept) != 1 || kept[0].Task != 1 {
		t.Fatalf("kept %+v, want only the high-reward pair", kept)
	}
	if m.BudgetDenied != 1 {
		t.Errorf("BudgetDenied = %d, want 1", m.BudgetDenied)
	}
	// A covering allowance keeps the full plan in its original order.
	kept = budgetGate(&Metrics{}, pairs, tasks, workers, 10*cost)
	if !reflect.DeepEqual(kept, pairs) {
		t.Errorf("kept %+v, want the full plan in order %+v", kept, pairs)
	}
}

// Scenario workloads must stay bit-identical across parallelism levels all
// the way through the simulator — same contract the paper workload has.
func TestScenarioMetricsParallelismInvariant(t *testing.T) {
	for _, g := range scenario.Suite() {
		w := g.Generate(scenarioParams())
		seq := mustSimulate(t, &Run{Workload: w, Assigner: assign.Greedy{}, Parallelism: 1})
		par := mustSimulate(t, &Run{Workload: w, Assigner: assign.Greedy{}, Parallelism: 8})
		seq.AssignTime, par.AssignTime = 0, 0
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%s: metrics differ across parallelism: par=1 %+v, par=8 %+v", g.Name(), seq, par)
		}
	}
}
