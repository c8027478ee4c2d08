package main

import (
	"testing"
	"time"
)

var sink [][]byte

func TestMeterCutsARoundIntoLaps(t *testing.T) {
	m := newMeter()
	m.op(time.Millisecond) // before begin: state building, not part of any lap
	m.begin()
	for i := 0; i < 100; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	m.op(2 * time.Millisecond)
	m.lap()
	m.op(3 * time.Millisecond)
	m.op(5 * time.Millisecond)
	m.sideRead(time.Millisecond)
	m.end(7, quality{Submitted: 1})
	sink = nil

	if len(m.rounds) != 1 {
		t.Fatalf("%d rounds filed, want 1", len(m.rounds))
	}
	r := m.rounds[0]
	if len(r.laps) != 2 || r.ticks != 7 || r.quality.Submitted != 1 || len(r.readsMs) != 1 {
		t.Fatalf("round %+v", r)
	}
	if got := r.laps[0].opsMs; len(got) != 1 || got[0] != 2 {
		t.Errorf("first lap's ops %v, want [2]", got)
	}
	if got := r.laps[1].opsMs; len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("second lap's ops %v, want [3 5]", got)
	}
	for i, l := range r.laps {
		if l.wallS <= 0 || l.host <= 0 {
			t.Errorf("lap %d: wall %v, host factor %v", i, l.wallS, l.host)
		}
	}
	// One reading opens the round and one closes each lap; a lap's factor is
	// made of the two beside it.
	if len(m.yards) != 3 {
		t.Fatalf("%d yardstick readings, want 3", len(m.yards))
	}
	if want := hostFactor(K0, m.yards[1], m.yards[2]); r.laps[1].host != want || r.laps[1].corrected() != r.laps[1].wallS*want {
		t.Errorf("second lap's factor %v, want %v", r.laps[1].host, want)
	}
	if r.mallocs < 100 || r.allocBytes < 100*1024 {
		t.Errorf("allocations of the laps not counted: %d mallocs, %d bytes", r.mallocs, r.allocBytes)
	}
	if r.wallS() != r.laps[0].wallS+r.laps[1].wallS {
		t.Errorf("round duration %v is not the sum of its laps", r.wallS())
	}
}
