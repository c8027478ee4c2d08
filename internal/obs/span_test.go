package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic time source: every Now() call advances it by
// a fixed step, so span durations are exact functions of the call sequence.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{t: time.Unix(0, 0), step: step}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

// TestSpanNestingAndTiming drives nested spans on an injected clock and
// checks both the hierarchical paths and the exact recorded durations.
func TestSpanNestingAndTiming(t *testing.T) {
	r := NewRegistry()
	clock := newFakeClock(time.Second)
	r.SetClock(clock.Now)
	ctx := WithRegistry(context.Background(), r)

	// Clock sequence (1s per Now call):
	//   t=1 train start, t=2 meta start, t=3 meta end, t=4 train end.
	trainCtx, endTrain := Span(ctx, "train")
	_, endMeta := Span(trainCtx, "meta")
	endMeta()
	endTrain()

	meta := r.Histogram(PhaseMetric, DefSecondsBuckets, L("phase", "train/meta"))
	if meta.Count() != 1 || meta.Sum() != 1 {
		t.Fatalf("train/meta: count=%d sum=%v, want 1 and 1s", meta.Count(), meta.Sum())
	}
	train := r.Histogram(PhaseMetric, DefSecondsBuckets, L("phase", "train"))
	if train.Count() != 1 || train.Sum() != 3 {
		t.Fatalf("train: count=%d sum=%v, want 1 and 3s", train.Count(), train.Sum())
	}
}

// TestSpanSiblingsShareParentPath: two children of the same span land in
// distinct series under the same parent prefix.
func TestSpanSiblingsShareParentPath(t *testing.T) {
	r := NewRegistry()
	clock := newFakeClock(time.Millisecond)
	r.SetClock(clock.Now)
	ctx := WithRegistry(context.Background(), r)

	simCtx, endSim := Span(ctx, "sim")
	Time(simCtx, "assign", func() {})
	Time(simCtx, "adapt", func() {})
	endSim()

	for _, phase := range []string{"sim", "sim/assign", "sim/adapt"} {
		h := r.Histogram(PhaseMetric, DefSecondsBuckets, L("phase", phase))
		if h.Count() != 1 {
			t.Fatalf("phase %q count = %d, want 1", phase, h.Count())
		}
	}
}

// TestSpanUsesContextRegistry: spans must record into the registry attached
// to the context, not the process Default.
func TestSpanUsesContextRegistry(t *testing.T) {
	r := NewRegistry()
	clock := newFakeClock(time.Second)
	r.SetClock(clock.Now)
	before := Default.Dump()

	ctx := WithRegistry(context.Background(), r)
	_, end := Span(ctx, "isolated")
	end()

	h := r.Histogram(PhaseMetric, DefSecondsBuckets, L("phase", "isolated"))
	if h.Count() != 1 {
		t.Fatalf("isolated span not recorded in ctx registry")
	}
	if after := Default.Dump(); after != before {
		t.Fatal("span leaked into Default registry")
	}
}

// TestRegistryFromFallsBackToDefault pins the contract instrumentation
// sites rely on: a bare context resolves to the Default registry.
func TestRegistryFromFallsBackToDefault(t *testing.T) {
	if RegistryFrom(context.Background()) != Default {
		t.Fatal("bare context should resolve to Default")
	}
	r := NewRegistry()
	if RegistryFrom(WithRegistry(context.Background(), r)) != r {
		t.Fatal("attached registry not resolved")
	}
}
