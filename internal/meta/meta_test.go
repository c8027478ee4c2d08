package meta

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/spatialcrowd/tamp/internal/cluster"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/sim"
)

// makeTask builds a synthetic learning task for one worker. Archetype 0
// workers live in the lower-left quadrant moving right; archetype 1 workers
// live in the upper-right moving up. Distinct regions make Sim_d separate
// the archetypes; distinct dynamics make per-cluster meta-training pay off.
func makeTask(workerID, archetype int, rng *rand.Rand, nSamples int) *LearningTask {
	task := &LearningTask{WorkerID: workerID}
	var cx, cy, vx, vy float64
	var poiType geo.POIType
	switch archetype {
	case 0:
		cx, cy, vx, vy = -0.5, -0.5, 0.06, 0
		poiType = geo.POIRetail
	default:
		cx, cy, vx, vy = 0.5, 0.5, 0, 0.06
		poiType = geo.POIBusiness
	}
	for i := 0; i < nSamples; i++ {
		x := cx + rng.NormFloat64()*0.1
		y := cy + rng.NormFloat64()*0.1
		var s nn.Sample
		for k := 0; k < 4; k++ {
			p := []float64{x + vx*float64(k), y + vy*float64(k)}
			s.In = append(s.In, p)
			task.Features.Points = append(task.Features.Points, geo.Pt(p[0], p[1]))
		}
		s.Out = append(s.Out, []float64{x + vx*4, y + vy*4})
		if i%2 == 0 {
			task.Support = append(task.Support, s)
		} else {
			task.Query = append(task.Query, s)
		}
	}
	task.Features.POIs = []geo.POI{{Loc: geo.Pt(cx, cy), Type: poiType}}
	return task
}

func makeTasks(n int, rng *rand.Rand) []*LearningTask {
	tasks := make([]*LearningTask, n)
	for i := range tasks {
		tasks[i] = makeTask(i, i%2, rng, 16)
	}
	return tasks
}

func testConfig(rng *rand.Rand) Config {
	cfg := DefaultConfig(rng)
	cfg.Hidden = 8
	cfg.MetaIters = 12
	cfg.TaskBatch = 4
	return cfg
}

func TestAdaptReducesSupportLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := testConfig(rng)
	task := makeTask(0, 0, rng, 20)
	m := cfg.NewModel()
	before := m.BatchLoss(task.Support, cfg.Loss)
	path := Adapt(m, task, 5, cfg.AdaptLR, cfg.Loss, cfg.ClipNorm)
	after := m.BatchLoss(task.Support, cfg.Loss)
	if after >= before {
		t.Errorf("adapt did not reduce loss: %v -> %v", before, after)
	}
	if len(path) != 5 {
		t.Errorf("path length = %d, want 5", len(path))
	}
	for _, g := range path {
		if len(g) != m.NumParams() {
			t.Errorf("gradient length = %d", len(g))
		}
	}
}

func TestComputeLearningPathsSharedInit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := testConfig(rng)
	tasks := makeTasks(4, rng)
	init := cfg.NewModel().Weights().Clone()
	if err := ComputeLearningPaths(context.Background(), tasks, cfg, init); err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if len(task.Features.Path) != cfg.AdaptSteps {
			t.Fatalf("path steps = %d", len(task.Features.Path))
		}
	}
	// Same-archetype tasks should have more similar learning paths than
	// cross-archetype ones.
	same := sim.LearningPathSim(tasks[0].Features.Path, tasks[2].Features.Path)
	cross := sim.LearningPathSim(tasks[0].Features.Path, tasks[1].Features.Path)
	if same <= cross {
		t.Errorf("same-archetype path sim %v <= cross %v", same, cross)
	}
}

func TestMetaTrainImprovesAdaptation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := testConfig(rng)
	cfg.MetaIters = 40
	var tasks []*LearningTask
	for i := 0; i < 8; i++ {
		tasks = append(tasks, makeTask(i, 0, rng, 16))
	}
	m := cfg.NewModel()
	theta := m.Weights().Clone()

	// Baseline: adapt from the random initialization.
	hold := makeTask(99, 0, rng, 16)
	m.SetWeights(theta)
	Adapt(m, hold, cfg.AdaptSteps, cfg.AdaptLR, cfg.Loss, cfg.ClipNorm)
	baseline := QueryLoss(m, hold, cfg.Loss)

	MetaTrain(context.Background(), theta, tasks, cfg)

	m.SetWeights(theta)
	Adapt(m, hold, cfg.AdaptSteps, cfg.AdaptLR, cfg.Loss, cfg.ClipNorm)
	trained := QueryLoss(m, hold, cfg.Loss)
	if trained >= baseline {
		t.Errorf("meta-training did not help held-out adaptation: %v -> %v", baseline, trained)
	}
}

func TestMetaTrainEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := testConfig(rng)
	theta := cfg.NewModel().Weights().Clone()
	if got := MetaTrain(context.Background(), theta, nil, cfg); got != 0 {
		t.Errorf("empty MetaTrain = %v", got)
	}
	cfg.MetaIters = 0
	if got := MetaTrain(context.Background(), theta, makeTasks(2, rng), cfg); got != 0 {
		t.Errorf("zero-iteration MetaTrain = %v", got)
	}
}

func TestTAMLFillsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := testConfig(rng)
	tasks := makeTasks(8, rng)
	root := &cluster.TreeNode{Members: []int{0, 1, 2, 3, 4, 5, 6, 7}, Level: -1}
	c0 := &cluster.TreeNode{Members: []int{0, 2, 4, 6}, Parent: root, Level: 0}
	c1 := &cluster.TreeNode{Members: []int{1, 3, 5, 7}, Parent: root, Level: 0}
	root.Children = []*cluster.TreeNode{c0, c1}

	init := cfg.NewModel().Weights().Clone()
	loss := TAML(context.Background(), root, tasks, cfg, init)
	if loss <= 0 {
		t.Errorf("TAML loss = %v", loss)
	}
	root.PostOrder(func(n *cluster.TreeNode) {
		if n.Theta == nil {
			t.Fatal("node left without Theta")
		}
		if len(n.Theta) != len(init) {
			t.Fatal("Theta length mismatch")
		}
	})
	// Parent θ must equal the mean of children θ (Reptile step from the
	// shared start).
	want := nn.Mean([]nn.Vector{c0.Theta, c1.Theta})
	for i := range want {
		if math.Abs(root.Theta[i]-want[i]) > 1e-9 {
			t.Fatal("root Theta is not the mean of children")
		}
	}
	// Children diverge toward their own archetypes.
	diff := c0.Theta.Clone()
	diff.Axpy(-1, c1.Theta)
	if diff.Norm() < 1e-6 {
		t.Error("children thetas identical; no specialization")
	}
}

func TestTrainMAML(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := testConfig(rng)
	tasks := makeTasks(6, rng)
	tr, err := TrainMAML(context.Background(), tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Algorithm != AlgMAML {
		t.Errorf("algorithm = %q", tr.Algorithm)
	}
	if !tr.Tree.IsLeaf() {
		t.Error("MAML tree should be a single node")
	}
	for i := range tasks {
		if tr.LeafFor(i) != tr.Tree {
			t.Errorf("task %d not mapped to root", i)
		}
		if len(tr.InitFor(i)) == 0 {
			t.Errorf("task %d has empty init", i)
		}
	}
	m := tr.AdaptedModelRNG(0, nil)
	if m == nil || m.NumParams() == 0 {
		t.Fatal("AdaptedModelRNG failed")
	}
}

func TestTrainMAMLEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := TrainMAML(context.Background(), nil, testConfig(rng)); err == nil {
		t.Error("expected error for no tasks")
	}
	if _, err := TrainCTML(context.Background(), nil, testConfig(rng)); err == nil {
		t.Error("expected error for no tasks")
	}
	if _, err := TrainGTTAML(context.Background(), nil, testConfig(rng), cluster.DefaultConfig(rng)); err == nil {
		t.Error("expected error for no tasks")
	}
}

func TestTrainCTML(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := testConfig(rng)
	tasks := makeTasks(10, rng)
	tr, err := TrainCTML(context.Background(), tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Algorithm != AlgCTML {
		t.Errorf("algorithm = %q", tr.Algorithm)
	}
	// Every task must map to exactly one leaf.
	seen := map[int]bool{}
	for _, leaf := range tr.Tree.Leaves() {
		for _, m := range leaf.Members {
			if seen[m] {
				t.Fatalf("task %d in two leaves", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != len(tasks) {
		t.Errorf("leaves cover %d tasks, want %d", len(seen), len(tasks))
	}
}

func TestTrainGTTAMLSeparatesArchetypes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := testConfig(rng)
	tasks := makeTasks(12, rng)
	ccfg := cluster.Config{
		K:          2,
		Gamma:      0.2,
		Metrics:    []sim.Metric{sim.Distribution},
		Thresholds: []float64{0.9},
		UseGame:    true,
		Rng:        rng,
	}
	tr, err := TrainGTTAML(context.Background(), tasks, cfg, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Algorithm != AlgGTTAML {
		t.Errorf("algorithm = %q", tr.Algorithm)
	}
	// The two archetypes live far apart; the first split should separate
	// them cleanly.
	if len(tr.Tree.Children) != 2 {
		t.Fatalf("root children = %d, want 2\n%s", len(tr.Tree.Children), tr.Tree)
	}
	for _, c := range tr.Tree.Children {
		arch := c.Members[0] % 2
		for _, m := range c.Members[1:] {
			if m%2 != arch {
				t.Errorf("cluster mixes archetypes: %v", c.Members)
			}
		}
	}
	// Per-task inits exist and differ across archetypes.
	i0, i1 := tr.InitFor(0), tr.InitFor(1)
	diff := i0.Clone()
	diff.Axpy(-1, i1)
	if diff.Norm() < 1e-9 {
		t.Error("archetype inits identical")
	}
}

func TestTrainGTTAMLGTVariantName(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := testConfig(rng)
	cfg.MetaIters = 4
	tasks := makeTasks(6, rng)
	ccfg := cluster.Config{
		K:          2,
		Gamma:      0.2,
		Metrics:    []sim.Metric{sim.Distribution},
		Thresholds: []float64{0.9},
		UseGame:    false,
		Rng:        rng,
	}
	tr, err := TrainGTTAML(context.Background(), tasks, cfg, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Algorithm != AlgGTTAMLGT {
		t.Errorf("algorithm = %q, want %q", tr.Algorithm, AlgGTTAMLGT)
	}
}

func TestPlaceNewFindsRightCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cfg := testConfig(rng)
	cfg.MetaIters = 6
	tasks := makeTasks(10, rng)
	ccfg := cluster.Config{
		K:          2,
		Gamma:      0.2,
		Metrics:    []sim.Metric{sim.Distribution},
		Thresholds: []float64{0.9},
		UseGame:    true,
		Rng:        rng,
	}
	tr, err := TrainGTTAML(context.Background(), tasks, cfg, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	newcomer := makeTask(100, 0, rng, 16)
	node := tr.PlaceNew(&newcomer.Features)
	if node == nil || node.Theta == nil {
		t.Fatal("PlaceNew returned nothing")
	}
	// The chosen node should be dominated by archetype-0 tasks.
	arch0 := 0
	for _, m := range node.Members {
		if m%2 == 0 {
			arch0++
		}
	}
	if arch0*2 <= len(node.Members) {
		t.Errorf("placement node has %d/%d archetype-0 tasks", arch0, len(node.Members))
	}
	model := tr.AdaptNewRNG(newcomer, nil)
	if model == nil {
		t.Fatal("AdaptNewRNG failed")
	}
}

func TestPlaceNewWithoutMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := testConfig(rng)
	cfg.MetaIters = 2
	tasks := makeTasks(4, rng)
	tr, err := TrainMAML(context.Background(), tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &sim.Features{}
	if node := tr.PlaceNew(f); node != tr.Tree {
		t.Error("metric-less placement should return the root")
	}
}

// TestGTTAMLBeatsMAMLOnHeldOut is the headline behavioural claim of §IV-B
// Table V in miniature: with two distinct mobility archetypes, clustering
// before meta-training yields better post-adaptation query loss than plain
// MAML, evaluated on the training workers' query sets.
func TestGTTAMLBeatsMAMLOnHeldOut(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cfg := testConfig(rng)
	cfg.MetaIters = 30
	tasks := makeTasks(12, rng)

	maml, err := TrainMAML(context.Background(), tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cluster.Config{
		K: 2, Gamma: 0.2,
		Metrics:    []sim.Metric{sim.Distribution},
		Thresholds: []float64{0.9},
		UseGame:    true,
		Rng:        rng,
	}
	gttaml, err := TrainGTTAML(context.Background(), tasks, cfg, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	evalQuery := func(tr *Trained) float64 {
		var sum float64
		for i, task := range tasks {
			m := tr.AdaptedModelRNG(i, nil)
			sum += QueryLoss(m, task, cfg.Loss)
		}
		return sum / float64(len(tasks))
	}
	lm, lg := evalQuery(maml), evalQuery(gttaml)
	if lg >= lm {
		t.Errorf("GTTAML loss %v not better than MAML loss %v", lg, lm)
	}
}

// TestMetaTrainParallelBitIdentical enforces the determinism contract of
// internal/par: per-task query gradients are index-addressed and reduced in
// sample order, and shard models draw from a detached RNG, so MetaTrain
// produces bit-identical weights at every parallelism level.
func TestMetaTrainParallelBitIdentical(t *testing.T) {
	tasksOf := func() []*LearningTask {
		return makeTasks(8, rand.New(rand.NewSource(77)))
	}
	run := func(par int) nn.Vector {
		cfg := testConfig(rand.New(rand.NewSource(5)))
		cfg.MetaIters = 6
		cfg.Parallelism = par
		theta := cfg.NewModel().Weights().Clone()
		MetaTrain(context.Background(), theta, tasksOf(), cfg)
		return theta
	}
	a := run(1)
	for _, par := range []int{1, 2, 4, 8} {
		b := run(par)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("parallelism %d diverges from serial at weight %d: %v != %v",
					par, i, a[i], b[i])
			}
		}
	}
}

// TestMetaTrainCancellation: a cancelled context stops meta-training at an
// iteration boundary instead of running all MetaIters.
func TestMetaTrainCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := testConfig(rng)
	cfg.MetaIters = 1 << 30 // far more than a test should ever run
	tasks := makeTasks(4, rng)
	theta := cfg.NewModel().Weights().Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	MetaTrain(ctx, theta, tasks, cfg) // must return promptly, not hang
}
