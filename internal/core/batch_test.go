package core

import (
	"testing"

	"github.com/spatialcrowd/tamp/internal/geo"
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
