package wal

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/fault"
)

// crashEvents builds a long valid event sequence: each round registers a
// worker, reports it, submits a task, assigns it, decides the offer, and
// advances the tick.
func crashEvents(rounds int) []core.Event {
	var evs []core.Event
	for i := 1; i <= rounds; i++ {
		evs = append(evs,
			core.WorkerRegistered{WorkerID: i, Detour: 10, Speed: 1, MR: 0.5},
			core.WorkerReported{WorkerID: i, X: float64(i), Y: float64(i % 7)},
			core.TaskSubmitted{TaskID: i, X: float64(i) + 0.5, Y: 1, Deadline: 10 * rounds},
			core.BatchAssigned{Offers: []core.OfferIssued{{OfferID: i, TaskID: i, WorkerID: i}}},
		)
		if i%2 == 0 {
			evs = append(evs, core.OfferAccepted{OfferID: i})
		} else {
			evs = append(evs, core.OfferRejected{OfferID: i})
		}
		evs = append(evs, core.TickAdvanced{})
	}
	return evs
}

func encodeAll(t *testing.T, evs []core.Event) [][]byte {
	t.Helper()
	out := make([][]byte, len(evs))
	for i, ev := range evs {
		b, err := core.EncodeEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// stateFrom rebuilds a core.State from a Recovery: decode the snapshot (or
// start fresh) and apply the tail records.
func stateFrom(t *testing.T, rec *Recovery) *core.State {
	t.Helper()
	st := core.NewState()
	if rec.Snapshot != nil {
		var err error
		st, err = core.DecodeSnapshot(rec.Snapshot)
		if err != nil {
			t.Fatalf("decode snapshot: %v", err)
		}
	}
	for i, p := range rec.Records {
		ev, err := core.DecodeEvent(p)
		if err != nil {
			t.Fatalf("decode record %d: %v", i, err)
		}
		if err := st.Apply(ev); err != nil {
			t.Fatalf("apply recovered record %d: %v", i, err)
		}
	}
	return st
}

// TestCrashReplayEquivalence is the durability contract: kill the process
// at a randomized point inside append or snapshot, restart, and the
// recovered state must be bit-identical (by snapshot digest) to the state
// at the durable prefix; finishing the remaining events must then land on
// exactly the digest an uninterrupted run produces.
func TestCrashReplayEquivalence(t *testing.T) {
	events := crashEvents(30)
	encoded := encodeAll(t, events)

	// Reference digests after every prefix of the event sequence.
	digests := make([]string, len(events)+1)
	ref := core.NewState()
	digests[0] = ref.Digest()
	for i, ev := range events {
		if err := ref.Apply(ev); err != nil {
			t.Fatalf("reference apply %d: %v", i, err)
		}
		digests[i+1] = ref.Digest()
	}
	baseline := digests[len(events)]

	points := []string{HookAppendFrame, HookAppendSync, HookSnapshotWrite, HookSnapshotRename}
	rng := rand.New(rand.NewSource(7))

	for trial := 0; trial < 30; trial++ {
		point := points[rng.Intn(len(points))]
		after := 1 + rng.Intn(len(events))
		snapEvery := 5 + rng.Intn(20)
		t.Run(fmt.Sprintf("trial%02d_%s_hit%d", trial, point, after), func(t *testing.T) {
			dir := t.TempDir()
			crasher := fault.NewCrasher(point, after)

			// Phase 1: run until the injected kill (or clean completion).
			func() {
				defer func() {
					if r := recover(); r != nil && !fault.IsCrash(r) {
						panic(r)
					}
				}()
				l, rec, err := Open(dir, Options{SegmentBytes: 512, Hook: crasher.Hit})
				if err != nil {
					t.Fatal(err)
				}
				st := stateFrom(t, rec)
				for seq := rec.StartSeq + uint64(len(rec.Records)); seq < uint64(len(events)); seq++ {
					if _, err := l.Append(encoded[seq]); err != nil {
						t.Fatalf("append %d: %v", seq, err)
					}
					if err := st.Apply(events[seq]); err != nil {
						t.Fatalf("apply %d: %v", seq, err)
					}
					if (seq+1)%uint64(snapEvery) == 0 {
						if err := l.Snapshot(st.EncodeSnapshot(), seq+1); err != nil {
							t.Fatalf("snapshot @%d: %v", seq+1, err)
						}
					}
				}
				l.Close()
			}()

			// Phase 2: restart. The recovered state must sit exactly at the
			// durable prefix of the event sequence.
			l, rec, err := Open(dir, Options{SegmentBytes: 512})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			end := rec.StartSeq + uint64(len(rec.Records))
			if end > uint64(len(events)) {
				t.Fatalf("recovered %d events, only %d written", end, len(events))
			}
			st := stateFrom(t, rec)
			if got := st.Digest(); got != digests[end] {
				t.Fatalf("recovered state at seq %d diverges from reference prefix", end)
			}
			if st.Applied != end {
				t.Fatalf("state applied %d != recovered end %d", st.Applied, end)
			}

			// Phase 3: finish the run; final state must be bit-identical to
			// the uninterrupted baseline.
			for seq := end; seq < uint64(len(events)); seq++ {
				got, err := l.Append(encoded[seq])
				if err != nil {
					t.Fatalf("resume append %d: %v", seq, err)
				}
				if got != seq {
					t.Fatalf("resume append got seq %d, want %d", got, seq)
				}
				if err := st.Apply(events[seq]); err != nil {
					t.Fatalf("resume apply %d: %v", seq, err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if st.Digest() != baseline {
				t.Fatal("resumed run diverged from uninterrupted baseline")
			}

			// And a cold rebuild purely from disk agrees too.
			cold, err := ReadLog(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := stateFrom(t, cold).Digest(); got != baseline {
				t.Fatal("cold replay from disk diverged from baseline")
			}
		})
	}
}
