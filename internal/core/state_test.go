package core

import (
	"context"
	"errors"
	"testing"
)

// lifecycle drives a canonical event sequence: two workers, two tasks, one
// batch, one accept, one reject, expiry.
func lifecycle(t testing.TB) *State {
	t.Helper()
	st := NewState()
	evs := []Event{
		WorkerRegistered{WorkerID: 1, Detour: 10, Speed: 1, MR: 0.8},
		WorkerRegistered{WorkerID: 2, Detour: 10, Speed: 1, MR: 0.9},
		WorkerReported{WorkerID: 1, X: 10, Y: 10},
		WorkerReported{WorkerID: 2, X: 40, Y: 10},
		TaskSubmitted{TaskID: 1, X: 12, Y: 10, Deadline: 20},
		TaskSubmitted{TaskID: 2, X: 42, Y: 10, Deadline: 3},
		BatchAssigned{Offers: []OfferIssued{
			{OfferID: 1, TaskID: 1, WorkerID: 1},
			{OfferID: 2, TaskID: 2, WorkerID: 2},
		}},
		OfferAccepted{OfferID: 1},
		OfferRejected{OfferID: 2},
		TickAdvanced{}, TickAdvanced{}, TickAdvanced{}, TickAdvanced{},
	}
	for i, ev := range evs {
		if err := st.Apply(ev); err != nil {
			t.Fatalf("apply event %d (%s): %v", i, ev.Kind(), err)
		}
	}
	return st
}

func TestLifecycleCounts(t *testing.T) {
	st := lifecycle(t)
	want := Counts{Offers: 2, Accepts: 1, Rejects: 1, Expired: 1, Batches: 1}
	if st.Counts != want {
		t.Fatalf("counts = %+v, want %+v", st.Counts, want)
	}
	if st.Tick != 4 || st.Applied != 13 {
		t.Fatalf("tick=%d applied=%d", st.Tick, st.Applied)
	}
	if st.Tasks[1].Status != StatusAccepted || st.Tasks[1].Accepted != 1 {
		t.Fatalf("task 1 = %+v", st.Tasks[1])
	}
	// Task 2 was rejected back to open, then expired at tick 4.
	if st.Tasks[2].Status != StatusExpired {
		t.Fatalf("task 2 = %+v", st.Tasks[2])
	}
	if !st.Tasks[2].Task.ExcludedWorker(2) {
		t.Fatal("rejected pair not excluded")
	}
	if len(st.Offers) != 0 {
		t.Fatalf("offers left over: %v", st.Offers)
	}
}

func TestApplyRejectsInvalidTransitions(t *testing.T) {
	st := NewState()
	must := func(ev Event) {
		t.Helper()
		if err := st.Apply(ev); err != nil {
			t.Fatalf("apply %s: %v", ev.Kind(), err)
		}
	}
	reject := func(ev Event, why string) {
		t.Helper()
		before := st.Digest()
		applied := st.Applied
		err := st.Apply(ev)
		var ae *ApplyError
		if err == nil || !errors.As(err, &ae) {
			t.Fatalf("%s: err = %v, want *ApplyError", why, err)
		}
		if st.Digest() != before || st.Applied != applied {
			t.Fatalf("%s: failed apply mutated state", why)
		}
	}

	reject(WorkerReported{WorkerID: 9, X: 1, Y: 1}, "report for unknown worker")
	reject(TaskSubmitted{TaskID: 0, X: 1, Y: 1, Deadline: 5}, "task id zero")
	must(WorkerRegistered{WorkerID: 1, Detour: 5, Speed: 1})
	reject(WorkerRegistered{WorkerID: 1, Detour: 5, Speed: 1}, "duplicate worker")
	must(TaskSubmitted{TaskID: 1, X: 1, Y: 1, Deadline: 5})
	reject(TaskSubmitted{TaskID: 1, X: 1, Y: 1, Deadline: 5}, "duplicate task")
	must(TickAdvanced{})
	reject(TaskSubmitted{TaskID: 2, X: 1, Y: 1, Deadline: 0}, "deadline before tick")
	reject(OfferAccepted{OfferID: 7}, "accept unknown offer")
	reject(BatchAssigned{Offers: []OfferIssued{{OfferID: 1, TaskID: 1, WorkerID: 9}}},
		"grant to unknown worker")
	must(WorkerReported{WorkerID: 1, X: 1, Y: 1})
	must(BatchAssigned{Offers: []OfferIssued{{OfferID: 1, TaskID: 1, WorkerID: 1}}})
	reject(BatchAssigned{Offers: []OfferIssued{{OfferID: 2, TaskID: 1, WorkerID: 1}}},
		"grant on offered task")
	reject(TaskCancelled{TaskID: 9}, "cancel unknown task")
	must(OfferAccepted{OfferID: 1})
	reject(OfferAccepted{OfferID: 1}, "double accept")
	reject(TaskCancelled{TaskID: 1}, "cancel accepted task")
}

func TestSnapshotRoundTripAndDigest(t *testing.T) {
	st := lifecycle(t)
	b := st.EncodeSnapshot()
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != st.Digest() {
		t.Fatalf("round-trip digest mismatch:\n%s\n%s", got.Digest(), st.Digest())
	}
	if string(got.EncodeSnapshot()) != string(b) {
		t.Fatal("re-encoded snapshot bytes differ")
	}
	// An independent replay of the same events digests identically.
	st2 := lifecycle(t)
	if st2.Digest() != st.Digest() {
		t.Fatal("same event sequence produced different digests")
	}
}

// codecEvents holds one event of every Kind.
var codecEvents = []Event{
	TaskSubmitted{TaskID: 3, X: 1.5, Y: 2.5, Deadline: 9},
	TaskCancelled{TaskID: 3},
	WorkerRegistered{WorkerID: 4, Detour: 7.5, Speed: 2, MR: 0.77},
	WorkerReported{WorkerID: 4, X: 0.25, Y: 0.75},
	TickAdvanced{},
	BatchAssigned{Offers: []OfferIssued{{OfferID: 1, TaskID: 3, WorkerID: 4}}, PredFallbacks: 2},
	DegradedBatch{Offers: []OfferIssued{{OfferID: 2, TaskID: 3, WorkerID: 4}}},
	OfferAccepted{OfferID: 1},
	OfferRejected{OfferID: 2},
	OfferRetracted{OfferID: 3},
}

func TestEventCodecRoundTrip(t *testing.T) {
	for _, ev := range codecEvents {
		b, err := EncodeEvent(ev)
		if err != nil {
			t.Fatalf("encode %s: %v", ev.Kind(), err)
		}
		got, err := DecodeEvent(b)
		if err != nil {
			t.Fatalf("decode %s: %v", ev.Kind(), err)
		}
		b2, err := EncodeEvent(got)
		if err != nil || string(b2) != string(b) {
			t.Fatalf("%s: round trip %s != %s (%v)", ev.Kind(), b2, b, err)
		}
	}
	if _, err := DecodeEvent([]byte(`{"k":"martian"}`)); err == nil {
		t.Fatal("unknown kind decoded")
	} else {
		var ce *CodecError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %T, want *CodecError", err)
		}
	}
	if _, err := DecodeEvent([]byte(`not json`)); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestBuildBatchDeterministicAndSorted(t *testing.T) {
	st := NewState()
	for id := 1; id <= 20; id++ {
		if err := st.Apply(WorkerRegistered{WorkerID: id, Detour: 10, Speed: 1, MR: 0.5}); err != nil {
			t.Fatal(err)
		}
		if err := st.Apply(WorkerReported{WorkerID: id, X: float64(id), Y: 5}); err != nil {
			t.Fatal(err)
		}
	}
	for id := 1; id <= 15; id++ {
		if err := st.Apply(TaskSubmitted{TaskID: id, X: float64(id), Y: 6, Deadline: 30}); err != nil {
			t.Fatal(err)
		}
	}
	in, err := BuildBatch(context.Background(), st, nil, nil, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Tasks) != 15 || len(in.Workers) != 20 {
		t.Fatalf("batch = %d tasks, %d workers", len(in.Tasks), len(in.Workers))
	}
	for i := 1; i < len(in.TaskIDs); i++ {
		if in.TaskIDs[i-1] >= in.TaskIDs[i] {
			t.Fatal("task ids not sorted")
		}
	}
	for i := 1; i < len(in.Workers); i++ {
		if in.Workers[i-1].ID >= in.Workers[i].ID {
			t.Fatal("worker ids not sorted")
		}
	}
	// Stand-still forecast fills the horizon.
	if len(in.Workers[0].Predicted) != 4 {
		t.Fatalf("predicted horizon = %d", len(in.Workers[0].Predicted))
	}
	in8, err := BuildBatch(context.Background(), st, nil, nil, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(in8.Workers) != len(in.Workers) {
		t.Fatal("parallelism changed the batch")
	}
	for i := range in8.Workers {
		if in8.Workers[i].ID != in.Workers[i].ID || in8.Workers[i].Loc != in.Workers[i].Loc {
			t.Fatalf("worker slot %d differs across parallelism", i)
		}
	}
}
