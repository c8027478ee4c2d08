package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refOpenTasks is batch selection as a scan of every task ever submitted —
// the selection before the live index — ordered by (Arrival, ID).
func refOpenTasks(st *State) []int {
	var ids []int
	for id, t := range st.Tasks {
		if t.Status == StatusOpen && t.Task.Deadline >= st.Tick {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := st.Tasks[ids[i]].Task, st.Tasks[ids[j]].Task
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		return a.ID < b.ID
	})
	return ids
}

// refExpiring is the set the next TickAdvanced expires, as a scan of every
// task ever submitted.
func refExpiring(st *State) []int {
	var ids []int
	for id, t := range st.Tasks {
		if (t.Status == StatusOpen || t.Status == StatusOffered) && t.Task.Deadline < st.Tick+1 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// statusOf records every task's status, to tell what one event changed.
func statusOf(st *State) map[int]TaskStatus {
	out := make(map[int]TaskStatus, len(st.Tasks))
	for id, t := range st.Tasks {
		out[id] = t.Status
	}
	return out
}

// sortedIDs returns m's keys in ascending order, so a seeded draw from them
// does not depend on map iteration order.
func sortedIDs[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// randomEvent draws an event that is legal on st: a registration, a report,
// a submission (IDs drawn out of order, so ties on Arrival exercise the ID
// order), a cancellation, a batch over what SelectBatch selects, a decision
// or retraction of a pending offer, or a tick.
func randomEvent(rng *rand.Rand, st *State) Event {
	for {
		switch rng.Intn(9) {
		case 0:
			return WorkerRegistered{WorkerID: len(st.Workers) + 1, Detour: 10, Speed: 1, MR: 0.5}
		case 1:
			if len(st.Workers) > 0 {
				return WorkerReported{WorkerID: 1 + rng.Intn(len(st.Workers)), X: rng.Float64() * 20, Y: rng.Float64() * 20}
			}
		case 2, 3:
			id := 1 + rng.Intn(500)
			if _, used := st.Tasks[id]; !used {
				return TaskSubmitted{TaskID: id, X: rng.Float64() * 20, Y: rng.Float64() * 20,
					Deadline: st.Tick + rng.Intn(6), Reward: float64(rng.Intn(3))}
			}
		case 4:
			for _, id := range sortedIDs(st.Tasks) {
				if st.Tasks[id].Status != StatusAccepted && rng.Intn(4) == 0 {
					return TaskCancelled{TaskID: id}
				}
			}
		case 5:
			in := SelectBatch(st)
			var offers []OfferIssued
			for i := 0; i < len(in.Tasks) && i < len(in.Workers); i++ {
				if rng.Intn(2) == 0 {
					offers = append(offers, OfferIssued{OfferID: st.NextOffer + len(offers), TaskID: in.TaskIDs[i], WorkerID: in.Workers[i].ID})
				}
			}
			return BatchAssigned{Offers: offers}
		case 6, 7:
			if ids := sortedIDs(st.Offers); len(ids) > 0 {
				id := ids[rng.Intn(len(ids))]
				switch rng.Intn(3) {
				case 0:
					return OfferAccepted{OfferID: id}
				case 1:
					return OfferRejected{OfferID: id}
				default:
					return OfferRetracted{OfferID: id}
				}
			}
		case 8:
			return TickAdvanced{}
		}
	}
}

// TestLiveIndexMatchesScan checks the live index against the scans it
// replaced, after every event of seeded random legal sequences with
// snapshot round trips mixed in: the batch's tasks, the open-task count,
// and the set each TickAdvanced expires.
func TestLiveIndexMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := NewState()
		for step := 0; step < 400; step++ {
			if rng.Intn(25) == 0 {
				again, err := DecodeSnapshot(st.EncodeSnapshot())
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				st = again
			}
			ev := randomEvent(rng, st)
			wantExpired := refExpiring(st)
			before := statusOf(st)
			if err := st.Apply(ev); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if _, tick := ev.(TickAdvanced); tick {
				var expired []int
				for id, t := range st.Tasks {
					if t.Status == StatusExpired && before[id] != StatusExpired {
						expired = append(expired, id)
					}
				}
				sort.Ints(expired)
				if !reflect.DeepEqual(expired, wantExpired) {
					t.Fatalf("seed %d step %d: tick expired %v, the scan expires %v", seed, step, expired, wantExpired)
				}
			}
			var in BatchInput
			in.SelectTasks(st)
			want := refOpenTasks(st)
			if !slices.Equal(in.TaskIDs, want) {
				t.Fatalf("seed %d step %d (%s): batch tasks %v, the scan selects %v", seed, step, ev.Kind(), in.TaskIDs, want)
			}
			for i, id := range in.TaskIDs {
				if !reflect.DeepEqual(in.Tasks[i], st.Tasks[id].Task) {
					t.Fatalf("seed %d step %d: batch task %d is %+v, the state holds %+v", seed, step, id, in.Tasks[i], st.Tasks[id].Task)
				}
			}
			if st.OpenTasks() != len(want) {
				t.Fatalf("seed %d step %d: OpenTasks %d, the scan counts %d", seed, step, st.OpenTasks(), len(want))
			}
		}
	}
}

// TestApplyAllocFree: on a warmed state, a caller applying a clock tick or
// a location report allocates nothing — Apply keeps nothing of its
// argument, so the event's conversion to Event stays on the caller's stack.
// A report's trace append reallocates once per maxTrace reports, below one
// allocation per run.
func TestApplyAllocFree(t *testing.T) {
	st := lifecycle(t)
	for i := 0; i < 2*maxTrace; i++ {
		if err := st.Apply(WorkerReported{WorkerID: 1, X: float64(i), Y: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var x float64
	if n := testing.AllocsPerRun(100, func() {
		x++
		if err := st.Apply(TickAdvanced{}); err != nil {
			t.Fatal(err)
		}
		if err := st.Apply(WorkerReported{WorkerID: 1, X: x, Y: 2}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("%v allocations per tick and report, want 0", n)
	}
}
