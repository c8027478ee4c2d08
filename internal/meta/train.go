package meta

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"github.com/spatialcrowd/tamp/internal/cluster"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/par"
	"github.com/spatialcrowd/tamp/internal/sim"
)

// Algorithm names reported by Trained.Algorithm, matching §IV's compared
// mobility prediction algorithms.
const (
	AlgMAML     = "MAML"
	AlgCTML     = "CTML"
	AlgGTTAMLGT = "GTTAML-GT" // GTMC replaced by plain k-means multi-level clustering
	AlgGTTAML   = "GTTAML"
)

// Trained is the output of meta-training: a learning task tree whose nodes
// carry trained initialization parameters, plus the configuration needed to
// adapt per-worker models from it.
type Trained struct {
	Algorithm string
	Tree      *cluster.TreeNode
	Tasks     []*LearningTask
	Cfg       Config
	// Matrices holds the similarity matrices (parallel to Metrics) used
	// during clustering; reused for cold-start placement. Nil for baselines
	// that do not cluster by these metrics.
	Matrices []*sim.Matrix
	Metrics  []sim.Metric
	// MeanLoss is the average query loss reported by the final TAML pass.
	MeanLoss float64

	// released is set by Release: Tasks no longer carry their samples.
	released bool

	leafOnce sync.Once
	leafOf   map[int]*cluster.TreeNode
}

// Release drops what only training and per-worker adaptation read: every
// task's support and query samples and its learning path, which together
// outweigh the trained weights several times over. What stays is what a
// trained set is consulted for afterwards — Tree, Cfg, Metrics, Algorithm,
// MeanLoss, and the task features PlaceNew compares a newly arrived worker
// against (the learning paths too, when the first clustering metric is
// Sim_l) — so AdaptNew returns the model it returned before. AdaptedModel
// needs the support samples and panics on a released set.
func (t *Trained) Release() {
	keepPaths := len(t.Metrics) > 0 && t.Metrics[0] == sim.LearningPath
	for _, task := range t.Tasks {
		task.Support, task.Query = nil, nil
		if !keepPaths {
			task.Features.Path = nil
		}
	}
	t.released = true
}

// LeafFor returns the tree leaf whose cluster contains the given task
// index. The lazy leaf index is built under a sync.Once so concurrent
// per-worker adaptation can share one Trained.
func (t *Trained) LeafFor(taskIdx int) *cluster.TreeNode {
	t.leafOnce.Do(func() {
		t.leafOf = map[int]*cluster.TreeNode{}
		for _, leaf := range t.Tree.Leaves() {
			for _, m := range leaf.Members {
				t.leafOf[m] = leaf
			}
		}
	})
	return t.leafOf[taskIdx]
}

// InitFor returns the trained initialization for the given task index
// (its leaf's θ).
func (t *Trained) InitFor(taskIdx int) nn.Vector {
	if leaf := t.LeafFor(taskIdx); leaf != nil && leaf.Theta != nil {
		return leaf.Theta
	}
	return t.Tree.Theta
}

// AdaptedModel clones the architecture, loads the task's initialization,
// and adapts it on the task's support set, returning the personalized
// mobility model for the worker.
func (t *Trained) AdaptedModel(taskIdx int) nn.Model {
	return t.AdaptedModelRNG(taskIdx, nil)
}

// AdaptedModelRNG is AdaptedModel with an explicit RNG for the transient
// weight initialization (nil falls back to Cfg.Rng). The fresh model's
// random weights are overwritten by the trained initialization before any
// use, so the choice of RNG never changes the result — but passing a
// private RNG makes the call safe to run concurrently for many workers
// (the shared Cfg.Rng is not a synchronized source).
func (t *Trained) AdaptedModelRNG(taskIdx int, rng *rand.Rand) nn.Model {
	if t.released {
		// Adapting on the emptied support set would hand back the bare
		// initialization as if it were the worker's model.
		panic("meta: AdaptedModel after Release: the set's support samples were dropped (predict.Train releases them; use the Result's Models)")
	}
	m := t.newModel(rng)
	m.SetWeights(t.InitFor(taskIdx))
	Adapt(m, t.Tasks[taskIdx], t.Cfg.AdaptSteps, t.Cfg.AdaptLR, t.Cfg.Loss, t.Cfg.ClipNorm)
	return m
}

// newModel builds a fresh network, drawing initialization noise from rng
// when given so concurrent callers never contend on Cfg.Rng.
func (t *Trained) newModel(rng *rand.Rand) nn.Model {
	cfg := t.Cfg
	if rng != nil {
		cfg.Rng = rng
	}
	return cfg.NewModel()
}

// TrainGTTAML runs the full pipeline of §III-B: compute learning paths,
// build the three similarity matrices, cluster with GTMC (Algorithm 1), and
// meta-train the tree with TAML (Algorithm 2). With ccfg.UseGame=false this
// is the GTTAML-GT ablation variant.
func TrainGTTAML(ctx context.Context, tasks []*LearningTask, cfg Config, ccfg cluster.Config) (*Trained, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("meta: no learning tasks")
	}
	if ccfg.Rng == nil {
		ccfg.Rng = cfg.Rng
	}
	// The learning-path factor needs per-task gradient paths from a shared
	// starting point.
	model := cfg.NewModel()
	init := model.Weights().Clone()
	if metricsInclude(ccfg.Metrics, sim.LearningPath) {
		if err := ComputeLearningPaths(ctx, tasks, cfg, init); err != nil {
			return nil, err
		}
	}
	matrices := make([]*sim.Matrix, len(ccfg.Metrics))
	for mi, metric := range ccfg.Metrics {
		matrices[mi] = sim.NewMatrixCtx(ctx, len(tasks), cfg.Parallelism, func(i, j int) float64 {
			return sim.Similarity(metric, &tasks[i].Features, &tasks[j].Features)
		})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tree := cluster.BuildTree(matrices, ccfg)
	loss := TAML(ctx, tree, tasks, cfg, init)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	name := AlgGTTAML
	if !ccfg.UseGame {
		name = AlgGTTAMLGT
	}
	return &Trained{
		Algorithm: name,
		Tree:      tree,
		Tasks:     tasks,
		Cfg:       cfg,
		Matrices:  matrices,
		Metrics:   ccfg.Metrics,
		MeanLoss:  loss,
	}, nil
}

// TrainMAML is the plain MAML baseline [15]: no clustering, one shared
// initialization meta-trained over every learning task.
func TrainMAML(ctx context.Context, tasks []*LearningTask, cfg Config) (*Trained, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("meta: no learning tasks")
	}
	root := &cluster.TreeNode{Level: -1}
	for i := range tasks {
		root.Members = append(root.Members, i)
	}
	model := cfg.NewModel()
	init := model.Weights().Clone()
	loss := TAML(ctx, root, tasks, cfg, init)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Trained{
		Algorithm: AlgMAML,
		Tree:      root,
		Tasks:     tasks,
		Cfg:       cfg,
		MeanLoss:  loss,
	}, nil
}

// CTMLClusters is the number of soft-k-means clusters used by the CTML
// baseline.
const CTMLClusters = 4

// TrainCTML is the clustered task-aware meta-learning baseline [41]: tasks
// are embedded by input-data features concatenated with a parameter-based
// learning path (the adapted parameter snapshots, not gradients), clustered
// by soft k-means, and each cluster is meta-trained independently under a
// single-level tree.
func TrainCTML(ctx context.Context, tasks []*LearningTask, cfg Config) (*Trained, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("meta: no learning tasks")
	}
	model := cfg.NewModel()
	init := model.Weights().Clone()

	// Embeddings are independent per task: fan out on the pool with one
	// private model clone per shard (ctmlEmbedding mutates its model).
	embed := make([]nn.Vector, len(tasks))
	shardModels := make([]nn.Model, par.Workers(cfg.Parallelism, len(tasks)))
	shardModels[0] = model
	for i := 1; i < len(shardModels); i++ {
		shardModels[i] = model.CloneModel()
	}
	if err := par.ForEachShard(ctx, len(tasks), cfg.Parallelism, func(shard, i int) error {
		embed[i] = ctmlEmbedding(shardModels[shard], init, tasks[i], cfg)
		return nil
	}); err != nil {
		return nil, err
	}
	assign, _ := cluster.SoftKMeans(embed, CTMLClusters, 2, 30, cfg.Rng)
	groups := cluster.Groups(assign, CTMLClusters)

	root := &cluster.TreeNode{Level: -1}
	for i := range tasks {
		root.Members = append(root.Members, i)
	}
	for _, g := range groups {
		root.Children = append(root.Children, &cluster.TreeNode{Members: g, Parent: root, Level: 0})
	}
	loss := TAML(ctx, root, tasks, cfg, init)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Trained{
		Algorithm: AlgCTML,
		Tree:      root,
		Tasks:     tasks,
		Cfg:       cfg,
		MeanLoss:  loss,
	}, nil
}

// ctmlEmbedding builds CTML's task representation: summary statistics of the
// task's input data followed by the parameter snapshots visited during
// adaptation (subsampled to bound dimensionality).
func ctmlEmbedding(model nn.Model, init nn.Vector, t *LearningTask, cfg Config) nn.Vector {
	// Input-data features: mean and standard deviation per dimension over
	// the support inputs.
	var meanX, meanY, m2X, m2Y float64
	var n float64
	for _, s := range t.Support {
		for _, p := range s.In {
			n++
			meanX += p[0]
			meanY += p[1]
			m2X += p[0] * p[0]
			m2Y += p[1] * p[1]
		}
	}
	if n > 0 {
		meanX /= n
		meanY /= n
		m2X = m2X/n - meanX*meanX
		m2Y = m2Y/n - meanY*meanY
	}
	out := nn.Vector{meanX, meanY, m2X, m2Y}

	// Parameter-based learning path: adapted weights after each step,
	// subsampled every stride-th parameter.
	model.SetWeights(init)
	grad := nn.NewVector(model.NumParams())
	opt := nn.SGD{LR: cfg.AdaptLR, ClipNorm: cfg.ClipNorm}
	stride := model.NumParams()/16 + 1
	for s := 0; s < cfg.AdaptSteps; s++ {
		model.BatchGrad(t.Support, cfg.Loss, grad)
		opt.Step(model.Weights(), grad)
		w := model.Weights()
		for i := 0; i < len(w); i += stride {
			out = append(out, w[i])
		}
	}
	return out
}

// PlaceNew implements the cold-start placement of §III-B: given a newly
// arrived worker's learning task, traverse the trained tree depth-first in
// post-order, compute the mean similarity between the new task and the
// tasks inside each node, and return the most similar node. The caller then
// initializes the new worker's model with that node's θ.
//
// Similarity uses the first metric the trainer clustered by (for GTTAML,
// Sim_d); trainers without matrices fall back to the tree root.
func (t *Trained) PlaceNew(f *sim.Features) *cluster.TreeNode {
	if len(t.Metrics) == 0 || t.Tree == nil {
		return t.Tree
	}
	metric := t.Metrics[0]
	best := t.Tree
	bestSim := -1.0
	t.Tree.PostOrder(func(n *cluster.TreeNode) {
		if len(n.Members) == 0 || n.Theta == nil {
			return
		}
		var sum float64
		for _, mi := range n.Members {
			sum += sim.Similarity(metric, f, &t.Tasks[mi].Features)
		}
		if avg := sum / float64(len(n.Members)); avg > bestSim {
			bestSim, best = avg, n
		}
	})
	return best
}

// AdaptNew builds a model for a newly arrived worker: place the task on the
// tree, initialize from the chosen node, adapt on the new task's support
// set.
func (t *Trained) AdaptNew(task *LearningTask) nn.Model {
	return t.AdaptNewRNG(task, nil)
}

// AdaptNewRNG is AdaptNew with an explicit RNG for the fresh model (nil
// falls back to Cfg.Rng). Tree placement only reads the trained tree, so
// with a private RNG the whole call is safe to run concurrently for many
// cold-start workers, and — because any placement node carries a trained
// θ that overwrites the random initialization — deterministic at every
// parallelism level.
func (t *Trained) AdaptNewRNG(task *LearningTask, rng *rand.Rand) nn.Model {
	node := t.PlaceNew(&task.Features)
	m := t.newModel(rng)
	if node != nil && node.Theta != nil {
		m.SetWeights(node.Theta)
	}
	Adapt(m, task, t.Cfg.AdaptSteps, t.Cfg.AdaptLR, t.Cfg.Loss, t.Cfg.ClipNorm)
	return m
}

func metricsInclude(ms []sim.Metric, m sim.Metric) bool {
	for _, x := range ms {
		if x == m {
			return true
		}
	}
	return false
}
