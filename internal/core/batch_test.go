package core

import (
	"context"
	"reflect"
	"testing"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/fault"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/predict"
)

// TestStandStill: horizon copies of the location from one allocation, and
// nil — what a model-less worker carried before — when there is no horizon.
func TestStandStill(t *testing.T) {
	cur := geo.Pt(3, -4)
	got := StandStill(cur, 8)
	if len(got) != 8 || cap(got) != 8 {
		t.Fatalf("len %d cap %d, want 8 and 8", len(got), cap(got))
	}
	for i, p := range got {
		if p != cur {
			t.Errorf("point %d = %v, want %v", i, p, cur)
		}
	}
	if StandStill(cur, 0) != nil || StandStill(cur, -1) != nil {
		t.Error("a non-positive horizon should yield nil")
	}
	if n := testing.AllocsPerRun(100, func() { _ = StandStill(cur, 8) }); n > 1 {
		t.Errorf("%v allocations per fill, want at most 1", n)
	}
}

// TestPlanBatchStandsStillWithoutWindowOrForecast: every worker below has a
// model that panics when called. A worker whose window is nil or empty is
// never rolled out — it stands still and no fallback is counted — and with
// forecast off no model is called at all, windows or not. The one worker
// that is rolled out shows the guard is live: its panic is one fallback.
func TestPlanBatchStandsStillWithoutWindowOrForecast(t *testing.T) {
	pms := map[int]*fault.PanicModel{}
	models := map[int]*predict.WorkerModel{}
	for id := 1; id <= 3; id++ {
		pms[id] = &fault.PanicModel{}
		models[id] = &predict.WorkerModel{WorkerID: id, Model: pms[id], SeqIn: 3, SeqOut: 1}
	}
	input := func(windows ...[]geo.Point) BatchInput {
		in := BatchInput{
			Tasks:   []assign.Task{{ID: 0, Loc: geo.Pt(1, 0), Deadline: 10}},
			TaskIDs: []int{7},
			Windows: windows,
		}
		for i := range windows {
			in.Workers = append(in.Workers, assign.Worker{ID: i + 1, Loc: geo.Pt(float64(i), 0), Detour: 10, Speed: 1})
		}
		return in
	}
	plan := func(in BatchInput, forecast bool) ([]assign.Worker, int) {
		t.Helper()
		var seen []assign.Worker
		offers, fallbacks, err := PlanBatch(context.Background(), in, forecast, models, nil, 1, 5,
			func(tasks []assign.Task, workers []assign.Worker) []assign.Pair {
				seen = workers
				return []assign.Pair{{Task: 0, Worker: 0}}
			})
		if err != nil {
			t.Fatal(err)
		}
		if want := []OfferIssued{{OfferID: 5, TaskID: 7, WorkerID: 1}}; !reflect.DeepEqual(offers, want) {
			t.Errorf("offers %+v, want %+v", offers, want)
		}
		return seen, fallbacks
	}
	standing := func(workers []assign.Worker, ids ...int) {
		t.Helper()
		for _, i := range ids {
			if want := StandStill(workers[i].Loc, PredHorizon); !reflect.DeepEqual(workers[i].Predicted, want) {
				t.Errorf("worker %d predicted %v, want stand-still %v", workers[i].ID, workers[i].Predicted, want)
			}
		}
	}
	window := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0)}

	workers, fallbacks := plan(input(nil, []geo.Point{}), true)
	standing(workers, 0, 1)
	if fallbacks != 0 || pms[1].Calls()+pms[2].Calls() != 0 {
		t.Errorf("windowless workers: %d fallbacks, %d model calls, want none", fallbacks, pms[1].Calls()+pms[2].Calls())
	}

	workers, fallbacks = plan(input(window, window, window), false)
	standing(workers, 0, 1, 2)
	if fallbacks != 0 || pms[1].Calls()+pms[2].Calls()+pms[3].Calls() != 0 {
		t.Errorf("forecast off: %d fallbacks, %d model calls, want none", fallbacks, pms[1].Calls()+pms[2].Calls()+pms[3].Calls())
	}

	workers, fallbacks = plan(input(nil, window), true)
	standing(workers, 0, 1)
	if fallbacks != 1 || pms[1].Calls() != 0 || pms[2].Calls() != 1 {
		t.Errorf("one windowed worker: %d fallbacks, model calls %d and %d, want 1, 0 and 1", fallbacks, pms[1].Calls(), pms[2].Calls())
	}
}
