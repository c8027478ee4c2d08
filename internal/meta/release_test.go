package meta

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/spatialcrowd/tamp/internal/cluster"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/sim"
)

func trainForRelease(t *testing.T, metrics []sim.Metric) (*Trained, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	cfg := testConfig(rng)
	cfg.MetaIters = 4
	thresholds := make([]float64, len(metrics))
	for i := range thresholds {
		thresholds[i] = 0.9
	}
	tr, err := TrainGTTAML(context.Background(), makeTasks(8, rng), cfg, cluster.Config{
		K: 2, Gamma: 0.2, Metrics: metrics, Thresholds: thresholds, UseGame: true, Rng: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, rng
}

func weightsBitEqual(a, b nn.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestReleaseDropsTrainingInputs: a released set keeps no sample and no
// learning path, and still places and adapts a newly arrived worker to the
// bit-identical model.
func TestReleaseDropsTrainingInputs(t *testing.T) {
	tr, rng := trainForRelease(t, []sim.Metric{sim.Distribution, sim.LearningPath})
	for i, task := range tr.Tasks {
		if len(task.Support) == 0 || len(task.Features.Path) == 0 {
			t.Fatalf("task %d had no samples or no path before Release; the test is vacuous", i)
		}
	}
	newcomer := makeTask(100, 0, rng, 16)
	before := tr.AdaptNewRNG(newcomer, nil).Weights().Clone()

	tr.Release()
	for i, task := range tr.Tasks {
		if task.Support != nil || task.Query != nil || task.Features.Path != nil {
			t.Errorf("task %d still holds %d support, %d query samples, %d path steps",
				i, len(task.Support), len(task.Query), len(task.Features.Path))
		}
		if len(task.Features.Points) == 0 {
			t.Errorf("task %d lost the feature cold-start placement compares", i)
		}
	}
	if after := tr.AdaptNewRNG(newcomer, nil).Weights(); !weightsBitEqual(before, after) {
		t.Error("AdaptNewRNG on the released set returned a different model")
	}
}

// TestReleaseKeepsPathsPlacementReads: when the set was clustered by the
// learning path first, PlaceNew compares paths, so they stay.
func TestReleaseKeepsPathsPlacementReads(t *testing.T) {
	tr, rng := trainForRelease(t, []sim.Metric{sim.LearningPath, sim.Distribution})
	newcomer := makeTask(100, 1, rng, 16)
	init := tr.Tree.Theta
	if err := ComputeLearningPaths(context.Background(), []*LearningTask{newcomer}, tr.Cfg, init); err != nil {
		t.Fatal(err)
	}
	before := tr.AdaptNewRNG(newcomer, nil).Weights().Clone()
	tr.Release()
	for i, task := range tr.Tasks {
		if task.Support != nil || task.Query != nil {
			t.Errorf("task %d still holds samples", i)
		}
		if len(task.Features.Path) == 0 {
			t.Errorf("task %d lost the path placement compares", i)
		}
	}
	if after := tr.AdaptNewRNG(newcomer, nil).Weights(); !weightsBitEqual(before, after) {
		t.Error("AdaptNewRNG on the released set returned a different model")
	}
}

// TestAdaptedModelAfterReleasePanics: adapting on the emptied support set
// would silently hand back the initialization, so it fails by name instead.
func TestAdaptedModelAfterReleasePanics(t *testing.T) {
	tr, _ := trainForRelease(t, []sim.Metric{sim.Distribution})
	if tr.AdaptedModelRNG(0, nil) == nil {
		t.Fatal("AdaptedModelRNG failed before Release")
	}
	tr.Release()
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "Release") {
			t.Fatalf("AdaptedModelRNG on a released set: recovered %q, want a panic naming Release", msg)
		}
	}()
	tr.AdaptedModelRNG(0, nil)
}
