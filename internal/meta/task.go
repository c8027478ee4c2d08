// Package meta implements the paper's worker-specific mobility prediction
// training stack: learning tasks (one per worker), first-order MAML
// meta-training inside a cluster (Algorithm 3), the recursive task-adaptive
// meta-learning over the learning task tree (TAML, Algorithm 2), the
// end-to-end GTTAML trainer that combines GTMC clustering with TAML, the
// MAML and CTML baselines of §IV, and the cold-start placement of newly
// arrived workers onto the trained tree.
package meta

import (
	"context"
	"math/rand"

	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/par"
	"github.com/spatialcrowd/tamp/internal/sim"
)

// LearningTask is Γ_i: the task of learning worker w_i's mobility pattern.
// Support and Query are the adaptation and evaluation halves of the worker's
// trajectory dataset 𝔻, already mapped to model space. Features carries the
// clustering representations of §III-B (POI sequence, k-step gradient
// learning path, location distribution); Path is filled in lazily by
// ComputeLearningPaths.
type LearningTask struct {
	WorkerID int
	Support  []nn.Sample
	Query    []nn.Sample
	Features sim.Features
}

// Config collects every hyperparameter of the meta-learning stack.
type Config struct {
	// Model architecture sizes.
	InDim, OutDim, Hidden int

	// MetaLR is the meta-learning rate α of Algorithms 2–3.
	MetaLR float64
	// AdaptLR is the adapt (inner-loop) rate β.
	AdaptLR float64
	// AdaptSteps is k, the number of inner-loop steps per task.
	AdaptSteps int
	// MetaIters is the number of meta-iterations per cluster.
	MetaIters int
	// TaskBatch is m, the number of learning tasks sampled per iteration.
	TaskBatch int
	// Loss drives both inner and outer objectives; typically nn.MSE or the
	// task-assignment-oriented nn.WeightedMSE.
	Loss nn.Loss
	// ClipNorm bounds gradient norms (0 disables).
	ClipNorm float64
	// Parallelism bounds the par pool used by MetaTrain batches, learning
	// paths, similarity matrices, and CTML embeddings (0 = GOMAXPROCS).
	// Results are bit-identical at every parallelism level: work is
	// index-addressed and reduced in index order (see internal/par).
	Parallelism int
	// Rng seeds model initialization and task sampling. Required.
	Rng *rand.Rand
}

// DefaultConfig returns laptop-scale hyperparameters that keep the paper's
// regime (few-step adaptation, small batches) while training in seconds.
func DefaultConfig(rng *rand.Rand) Config {
	return Config{
		InDim:      2,
		OutDim:     2,
		Hidden:     16,
		MetaLR:     0.01,
		AdaptLR:    0.05,
		AdaptSteps: 3,
		MetaIters:  30,
		TaskBatch:  8,
		Loss:       nn.MSE{},
		ClipNorm:   5,
		Rng:        rng,
	}
}

// NewModel constructs a fresh network with the configured sizes.
func (c Config) NewModel() nn.Model {
	return nn.NewSeq2Seq(c.InDim, c.OutDim, c.Hidden, c.Rng)
}

// Adapt performs k inner-loop SGD steps on the task's support set starting
// from the model's current weights (Algorithm 3, lines 4–7), mutating the
// model in place. It returns the gradient at each step — the task's k-step
// learning path ℤ used by Sim_l.
func Adapt(m nn.Model, task *LearningTask, steps int, lr float64, loss nn.Loss, clipNorm float64) []nn.Vector {
	path := make([]nn.Vector, 0, steps)
	grad := nn.NewVector(m.NumParams())
	adaptSteps(m, task, steps, lr, loss, clipNorm, grad, &path)
	return path
}

// AdaptInPlace is Adapt for callers that do not need the learning path: the
// k SGD steps run entirely in the caller-provided gradient buffer, so hot
// loops (MetaTrain's batch adaptation, online worker updates) adapt without
// allocating. grad must hold m.NumParams() elements.
func AdaptInPlace(m nn.Model, task *LearningTask, steps int, lr float64, loss nn.Loss, clipNorm float64, grad nn.Vector) {
	adaptSteps(m, task, steps, lr, loss, clipNorm, grad, nil)
}

func adaptSteps(m nn.Model, task *LearningTask, steps int, lr float64, loss nn.Loss, clipNorm float64, grad nn.Vector, path *[]nn.Vector) {
	opt := nn.SGD{LR: lr, ClipNorm: clipNorm}
	for s := 0; s < steps; s++ {
		m.BatchGrad(task.Support, loss, grad)
		if path != nil {
			*path = append(*path, grad.Clone())
		}
		opt.Step(m.Weights(), grad)
	}
}

// ComputeLearningPaths fills task.Features.Path for every task by adapting
// a model initialized at the shared weights init. Sharing the starting point
// is what makes gradient paths comparable across tasks (Eq. 2). Tasks are
// processed concurrently with one model clone per pool shard; each task
// writes only its own Features.Path, and every path is a pure function of
// (init, task), so the result is parallelism-independent.
func ComputeLearningPaths(ctx context.Context, tasks []*LearningTask, cfg Config, init nn.Vector) error {
	models := make([]nn.Model, par.Workers(cfg.Parallelism, len(tasks)))
	models[0] = cfg.NewModel()
	for i := 1; i < len(models); i++ {
		models[i] = models[0].CloneModel()
	}
	return par.ForEachShard(ctx, len(tasks), cfg.Parallelism, func(shard, i int) error {
		m := models[shard]
		m.SetWeights(init)
		tasks[i].Features.Path = Adapt(m, tasks[i], cfg.AdaptSteps, cfg.AdaptLR, cfg.Loss, cfg.ClipNorm)
		return nil
	})
}

// QueryLoss evaluates the model (already adapted) on the task's query set.
func QueryLoss(m nn.Model, task *LearningTask, loss nn.Loss) float64 {
	return m.BatchLoss(task.Query, loss)
}
