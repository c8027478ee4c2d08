package platform

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/replay"
	"github.com/spatialcrowd/tamp/internal/scenario"
)

// recordRun simulates with an EventSink, returning the metrics, the emitted
// events, and their concatenated wire encoding (for bit-identity checks).
func recordRun(t *testing.T, run Run) (Metrics, []core.Event, []byte) {
	t.Helper()
	var events []core.Event
	var wire bytes.Buffer
	run.EventSink = func(ev core.Event) error {
		b, err := core.EncodeEvent(ev)
		if err != nil {
			return err
		}
		wire.Write(b)
		wire.WriteByte('\n')
		events = append(events, ev)
		return nil
	}
	m := mustSimulate(t, &run)
	return m, events, wire.Bytes()
}

// TestEventSinkRecordsReplayableRun checks the simulator's event stream is a
// faithful, replayable account of the run: every event applies cleanly to a
// fresh state machine, and the replayed tallies equal the sim's own metrics.
func TestEventSinkRecordsReplayableRun(t *testing.T) {
	w, models := simWorkload(t)
	run := Run{Workload: w, Models: models, Assigner: assign.PPI{A: predict.DefaultMatchRadius}}
	m, events, wire := recordRun(t, run)
	if m.Assigned == 0 || m.Accepted == 0 {
		t.Fatalf("degenerate run: %+v", m)
	}

	st := core.NewState()
	for i, ev := range events {
		if err := st.Apply(ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	if st.Counts.Offers != int64(m.Assigned) {
		t.Errorf("replayed offers = %d, sim assigned = %d", st.Counts.Offers, m.Assigned)
	}
	if st.Counts.Accepts != int64(m.Accepted) {
		t.Errorf("replayed accepts = %d, sim accepted = %d", st.Counts.Accepts, m.Accepted)
	}
	if st.Counts.Rejects != int64(m.Assigned-m.Accepted) {
		t.Errorf("replayed rejects = %d, sim rejected = %d", st.Counts.Rejects, m.Assigned-m.Accepted)
	}
	horizon := w.Params.TestDays * w.Params.TicksPerDay
	if st.Tick != horizon-1 {
		t.Errorf("replayed tick = %d, want %d", st.Tick, horizon-1)
	}
	if got, want := len(st.Workers), len(w.Workers); got != want {
		t.Errorf("replayed workers = %d, want %d", got, want)
	}

	// The recording is deterministic: a second run emits identical bytes
	// and replays to an identical state.
	m2, _, wire2 := recordRun(t, Run{Workload: w, Models: models, Assigner: assign.PPI{A: predict.DefaultMatchRadius}})
	if m2.Assigned != m.Assigned || m2.Accepted != m.Accepted {
		t.Fatalf("second run diverged: %+v vs %+v", m2, m)
	}
	if !bytes.Equal(wire, wire2) {
		t.Error("recorded event bytes differ between identical runs")
	}
}

// TestEventSinkErrorAbortsRun checks a failing sink stops the simulation
// instead of silently dropping the record.
func TestEventSinkErrorAbortsRun(t *testing.T) {
	w, models := simWorkload(t)
	sinkErr := errors.New("disk full")
	run := Run{
		Workload: w, Models: models,
		Assigner:  assign.PPI{A: predict.DefaultMatchRadius},
		EventSink: func(core.Event) error { return sinkErr },
	}
	if _, err := run.Simulate(context.Background()); !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want %v", err, sinkErr)
	}
}

// TestEventSinkSkipsTaskExpiredOnArrival: a task whose deadline has passed
// by the tick it arrives at counts in TotalTasks but is never pooled, so it
// is never recorded either — core could not submit it — and the recording
// replays.
func TestEventSinkSkipsTaskExpiredOnArrival(t *testing.T) {
	tasks := []assign.Task{
		{ID: 0, Loc: geo.Pt(5, 0), Arrival: 0, Deadline: 10},
		{ID: 1, Loc: geo.Pt(5, 0), Arrival: 8, Deadline: 3}, // expired on arrival
	}
	run := Run{Workload: handWorkload(tasks), Models: map[int]*predict.WorkerModel{}, Assigner: assign.UB{}}
	m, events, _ := recordRun(t, run)
	if m.TotalTasks != 2 || m.Accepted != 1 {
		t.Errorf("total %d, accepted %d, want 2 and 1", m.TotalTasks, m.Accepted)
	}
	rep, err := replay.Events(context.Background(), core.NewState(), events, replay.Options{Assigner: assign.UB{}})
	if err != nil {
		t.Fatalf("the recording does not replay: %v", err)
	}
	if got := rep.Final.Counts.Accepts; got != int64(m.Accepted) {
		t.Errorf("replayed accepts = %d, sim accepted = %d", got, m.Accepted)
	}
	if _, ok := rep.Final.Tasks[2]; ok {
		t.Error("the expired task was submitted")
	}
}

// TestBudgetRecordingReplays: a budget-scenario recording carries every
// task's reward, so a replay's tasks weigh as the run's did, and replaying
// it under KM tallies what the run measured.
func TestBudgetRecordingReplays(t *testing.T) {
	w, models := scenarioSet(t, scenario.DefaultBudget())
	m, events, _ := recordRun(t, Run{Workload: w, Models: models, Assigner: assign.KM{}})
	if m.Assigned == 0 || m.BudgetSpentKM == 0 {
		t.Fatalf("degenerate run: %+v", m)
	}
	platformModels := make(map[int]*predict.WorkerModel, len(models))
	for id, model := range models {
		platformModels[id+1] = model
	}
	rep, err := replay.Events(context.Background(), core.NewState(), events, replay.Options{Assigner: assign.KM{}, Models: platformModels})
	if err != nil {
		t.Fatalf("the recording does not replay: %v", err)
	}
	rewarded := 0
	for _, task := range w.TestTasks {
		got, ok := rep.Final.Tasks[task.ID+1]
		if !ok {
			continue // expired before it arrived, or beyond the horizon
		}
		if got.Task.Reward != task.Reward {
			t.Fatalf("task %d replayed with reward %v, the workload posts %v", task.ID, got.Task.Reward, task.Reward)
		}
		if task.Reward > 0 {
			rewarded++
		}
	}
	if rewarded == 0 {
		t.Fatal("no replayed task carries a reward")
	}
	c := rep.Final.Counts
	if c.Offers != int64(m.Assigned) || c.Accepts != int64(m.Accepted) || c.Rejects != int64(m.Assigned-m.Accepted) {
		t.Errorf("replayed counts %+v, the run assigned %d and accepted %d", c, m.Assigned, m.Accepted)
	}
}
