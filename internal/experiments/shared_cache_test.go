package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/predict"
)

// withoutSharedMemo trains through a trainer that strips Result.Forecasts
// for the duration of the test, so every simulation of a sweep falls back to
// a private per-run cache — the behaviour before the trained set owned one.
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
// the two model sets' memos or each builds its own, and the shared run
// reuses rollouts across assigners and sweep points.
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
	private, uses, err := RunAssignmentSweep(context.Background(), dataset.Workload1, SweepDetour, Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range uses {
		if u.RolledOut != 0 || u.Reused != 0 {
			t.Errorf("%v: the stripped trainer still shared a memo", u)
		}
	}
	if len(shared) != len(private) {
		t.Fatalf("%d rows shared, %d private", len(shared), len(private))
	}
	for i := range shared {
		a, b := shared[i], private[i]
		a.TimeSec, b.TimeSec = 0, 0 // wall clock
		if a != b {
			t.Errorf("row %d differs:\n shared:  %+v\n private: %+v", i, a, b)
		}
	}
}

// TestMatrixCellsIdenticalWithAndWithoutSharedMemo: the same for the
// quick-scale benchmark matrix (three generators × six assigners), whose
// progress stream also reports each model set's totals.
func TestMatrixCellsIdenticalWithAndWithoutSharedMemo(t *testing.T) {
	var progress bytes.Buffer
	shared, err := RunMatrix(context.Background(), []Scale{Quick}, &progress)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(progress.String(), "rolled out"); n != 3 {
		t.Errorf("progress reports %d model sets' forecast totals, want 3:\n%s", n, progress.String())
	}

	withoutSharedMemo(t)
	private, err := RunMatrix(context.Background(), []Scale{Quick}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(shared) != len(private) {
		t.Fatalf("%d cells shared, %d private", len(shared), len(private))
	}
	for i := range shared {
		a, b := shared[i], private[i]
		a.AssignMs, b.AssignMs = 0, 0 // wall clock
		if a != b {
			t.Errorf("cell %d differs:\n shared:  %+v\n private: %+v", i, a, b)
		}
	}
}
