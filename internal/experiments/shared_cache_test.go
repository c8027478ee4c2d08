package experiments

import (
	"context"
	"strings"
	"testing"

	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/predict"
)

// withoutSharedMemo trains through a trainer that strips Result.Forecasts
// for the duration of the test, so every simulation of a sweep recomputes
// every rollout — the uncached reference the shared memo must equal.
func withoutSharedMemo(t *testing.T) {
	t.Helper()
	trainPredictors = func(ctx context.Context, w *dataset.Workload, opts predict.Options) (*predict.Result, error) {
		res, err := predict.Train(ctx, w, opts)
		if res != nil {
			res.Forecasts = nil
		}
		return res, err
	}
	t.Cleanup(func() { trainPredictors = predict.Train })
}

// TestSweepRowsIdenticalWithAndWithoutSharedMemo: the quick-scale Fig. 6
// sweep produces the same quality columns whether its 35 simulations share
// the two model sets' memos or run uncached, and the shared run reuses
// rollouts across assigners and sweep points.
func TestSweepRowsIdenticalWithAndWithoutSharedMemo(t *testing.T) {
	shared, uses, err := RunAssignmentSweep(context.Background(), dataset.Workload1, SweepDetour, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(uses) != 2 {
		t.Fatalf("%d model sets reported, want 2 (weighted and MSE loss)", len(uses))
	}
	for _, u := range uses {
		if u.RolledOut == 0 || u.Reused == 0 {
			t.Errorf("%v: a sweep over one model set must both roll out and reuse", u)
		}
		if !strings.Contains(u.String(), "rolled out") {
			t.Errorf("rendering %q", u)
		}
	}

	withoutSharedMemo(t)
	uncached, uses, err := RunAssignmentSweep(context.Background(), dataset.Workload1, SweepDetour, Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range uses {
		if u.RolledOut != 0 || u.Reused != 0 {
			t.Errorf("%v: the stripped trainer still shared a memo", u)
		}
	}
	if len(shared) != len(uncached) {
		t.Fatalf("%d rows shared, %d uncached", len(shared), len(uncached))
	}
	for i := range shared {
		a, b := shared[i], uncached[i]
		a.TimeSec, b.TimeSec = 0, 0 // wall clock
		if a != b {
			t.Errorf("row %d differs:\n shared:  %+v\n uncached: %+v", i, a, b)
		}
	}
}

// TestMatrixCellsIdenticalWithAndWithoutSharedMemo: the same for the
// quick-scale benchmark matrix (three generators × six assigners), which
// also reports each of its three model sets' forecast totals.
func TestMatrixCellsIdenticalWithAndWithoutSharedMemo(t *testing.T) {
	shared, uses, err := RunMatrix(context.Background(), []Scale{Quick})
	if err != nil {
		t.Fatal(err)
	}
	if len(uses) != 3 {
		t.Fatalf("%d model sets reported, want 3 (one per generator)", len(uses))
	}
	for _, u := range uses {
		if u.RolledOut == 0 || u.Reused == 0 {
			t.Errorf("%v: six assigners over one model set must both roll out and reuse", u)
		}
	}

	withoutSharedMemo(t)
	uncached, _, err := RunMatrix(context.Background(), []Scale{Quick})
	if err != nil {
		t.Fatal(err)
	}
	if len(shared) != len(uncached) {
		t.Fatalf("%d cells shared, %d uncached", len(shared), len(uncached))
	}
	for i := range shared {
		a, b := shared[i], uncached[i]
		a.AssignMs, b.AssignMs = 0, 0 // wall clock
		if a != b {
			t.Errorf("cell %d differs:\n shared:  %+v\n uncached: %+v", i, a, b)
		}
	}
}
