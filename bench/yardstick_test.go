package main

import (
	"math"
	"testing"
)

func TestYardstickIsDeterministicAndLive(t *testing.T) {
	a, b := newYardstick(), newYardstick()
	sa, ca := a.run()
	_, cb := b.run()
	_, ca2 := a.run()
	if ca != cb || ca != ca2 {
		t.Fatalf("checksums differ: %v %v %v", ca, cb, ca2)
	}
	if math.IsNaN(ca) || math.Abs(ca) < 1e-6 {
		t.Fatalf("checksum %v: the iterate collapsed", ca)
	}
	if sa <= 0 {
		t.Fatalf("duration %v", sa)
	}
	for _, v := range a.x {
		if v != 0 && math.Abs(v) < 1e-300 {
			t.Fatalf("denormal-range value %g in the iterate", v)
		}
	}
}

func TestRequestYardstickReadsAndCleansUp(t *testing.T) {
	ys, err := newRequestYardstick(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	requests, syncs, err := ys.run()
	if err != nil || requests <= 0 || syncs <= 0 {
		t.Fatalf("reading %v, %v, error %v", requests, syncs, err)
	}
	info, err := ys.file.Stat()
	if want := int64((requestReps + syncReps) * 96); err != nil || info.Size() != want {
		t.Fatalf("yardstick file holds %v bytes (%v), want %d", info.Size(), err, want)
	}
	ys.close()
	if _, _, err := ys.run(); err == nil {
		t.Fatal("a closed yardstick still answers")
	}
}
