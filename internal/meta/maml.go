package meta

import (
	"context"
	"math/rand"

	"github.com/spatialcrowd/tamp/internal/cluster"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/par"
)

// metaObs bundles the handles MetaTrain updates each iteration. Handles are
// resolved once per segment (registry lookups allocate; atomic updates do
// not), and the adapt/step histograms are shared across pool goroutines.
type metaObs struct {
	iters    *obs.Counter   // tamp_meta_iters_total: meta-iterations completed
	loss     *obs.Gauge     // tamp_meta_loss: mean query loss of the last batch
	gradNorm *obs.Gauge     // tamp_meta_grad_norm: pre-clip norm of the last meta gradient
	adaptSec *obs.Histogram // tamp_meta_adapt_seconds: per-task inner loop + query grad
	stepSec  *obs.Histogram // tamp_opt_step_seconds: outer optimizer update
	reg      *obs.Registry
}

func newMetaObs(reg *obs.Registry) metaObs {
	return metaObs{
		iters:    reg.Counter("tamp_meta_iters_total"),
		loss:     reg.Gauge("tamp_meta_loss"),
		gradNorm: reg.Gauge("tamp_meta_grad_norm"),
		adaptSec: reg.Histogram("tamp_meta_adapt_seconds", obs.DefSecondsBuckets),
		stepSec:  reg.Histogram("tamp_opt_step_seconds", obs.DefSecondsBuckets),
		reg:      reg,
	}
}

// MetaTrain is Algorithm 3 (Meta-Training) run on one learning-task cluster:
// repeatedly sample a batch of m tasks, adapt a copy of the shared
// initialization k steps on each task's support set, evaluate the adapted
// model's query loss, and move the initialization against the mean query
// gradient.
//
// The update uses the first-order MAML approximation: the query gradient is
// taken at the adapted parameters and applied directly to the
// initialization, omitting the second-order term (see DESIGN.md). theta is
// updated in place; the mean query loss across all iterations is returned
// (Algorithm 3, lines 10–11).
//
// Batch tasks are independent given the shared initialization, so they
// adapt concurrently on a par pool of cfg.Parallelism shards, each owning a
// private model and gradient buffer. Determinism contract: task sampling
// happens on the caller's goroutine, per-task query gradients land in an
// index-addressed slice, and the meta update reduces that slice
// sequentially in sample order — so theta is bit-identical at every
// parallelism level. Shard models are built from a detached RNG (their
// random initialization is overwritten before use), keeping cfg.Rng's
// stream independent of the shard count.
//
// Cancelling ctx stops the loop at the next iteration boundary; theta keeps
// the last completed update.
func MetaTrain(ctx context.Context, theta nn.Vector, tasks []*LearningTask, cfg Config) float64 {
	if len(tasks) == 0 || cfg.MetaIters <= 0 {
		return 0
	}
	// Observability: every segment records under "meta.train" (nested below
	// the caller's span, e.g. "predict.train/meta.train"), with per-iteration
	// loss/grad-norm gauges and optimizer timings.
	mctx, endSpan := obs.Span(ctx, "meta.train")
	defer endSpan()
	ctx = mctx
	mo := newMetaObs(obs.RegistryFrom(ctx))
	batch := cfg.TaskBatch
	if batch <= 0 || batch > len(tasks) {
		batch = len(tasks)
	}
	shards := par.Workers(cfg.Parallelism, batch)
	type shard struct {
		model nn.Model
		// adaptGrad is the shard's reusable inner-loop gradient buffer:
		// adaptation runs every iteration, so it must not allocate per task.
		adaptGrad nn.Vector
	}
	slots := make([]shard, shards)
	{
		// Shard models never contribute their random initialization (every
		// use starts with SetWeights), so draw them from a throwaway RNG:
		// consuming cfg.Rng here would make the sampling stream — and hence
		// the result — depend on the shard count.
		mcfg := cfg
		mcfg.Rng = rand.New(rand.NewSource(1))
		template := mcfg.NewModel()
		slots[0].model = template
		for i := 1; i < shards; i++ {
			slots[i].model = template.CloneModel()
		}
		for i := range slots {
			slots[i].adaptGrad = nn.NewVector(template.NumParams())
		}
	}
	// Index-addressed per-task results, reduced in sample order below.
	taskGrads := make([]nn.Vector, batch)
	for i := range taskGrads {
		taskGrads[i] = nn.NewVector(slots[0].model.NumParams())
	}
	taskLoss := make([]float64, batch)

	meanGrad := nn.NewVector(len(theta))
	var totalLoss float64
	var lossCount int
	for iter := 0; iter < cfg.MetaIters; iter++ {
		// Sample a batch of m learning tasks from T^t.G (line 2) on the
		// caller's goroutine: cfg.Rng is never touched inside the pool.
		idx := cfg.Rng.Perm(len(tasks))[:batch]
		err := par.ForEachShard(ctx, len(idx), cfg.Parallelism, func(s, k int) error {
			sl := &slots[s]
			task := tasks[idx[k]]
			t0 := mo.reg.Now()
			// Adapt k steps on Γ_i from the shared initialization
			// (lines 4–7).
			sl.model.SetWeights(theta)
			AdaptInPlace(sl.model, task, cfg.AdaptSteps, cfg.AdaptLR, cfg.Loss, cfg.ClipNorm, sl.adaptGrad)
			// Query loss and gradient at the adapted weights (line 8).
			taskLoss[k] = sl.model.BatchGrad(task.Query, cfg.Loss, taskGrads[k])
			mo.adaptSec.Observe(mo.reg.Now().Sub(t0).Seconds())
			return nil
		})
		if err != nil {
			break
		}
		meanGrad.Zero()
		var iterLoss float64
		for k := range idx {
			meanGrad.Axpy(1/float64(batch), taskGrads[k])
			iterLoss += taskLoss[k]
			totalLoss += taskLoss[k]
			lossCount++
		}
		// Meta update (line 9), timed as the outer optimizer step. The
		// grad-norm gauge reads the pre-clip norm — the signal that shows
		// training divergence before clipping hides it.
		stepStart := mo.reg.Now()
		norm := meanGrad.Norm()
		if cfg.ClipNorm > 0 && norm > cfg.ClipNorm {
			meanGrad.Scale(cfg.ClipNorm / norm)
		}
		theta.Axpy(-cfg.MetaLR, meanGrad)
		mo.stepSec.Observe(mo.reg.Now().Sub(stepStart).Seconds())
		mo.gradNorm.Set(norm)
		mo.loss.Set(iterLoss / float64(batch))
		mo.iters.Inc()
	}
	if lossCount == 0 {
		return 0
	}
	return totalLoss / float64(lossCount)
}

// TAML is Algorithm 2 (Task Adaptive Meta-learning): train the learning
// task tree bottom-up. Leaves run MetaTrain on their cluster; an interior
// node then moves its initialization toward the mean of its children's
// trained initializations — the first-order realisation of the paper's
// "update T^t.θ based on the average gradient of all child nodes" — and
// returns the average of the children's losses.
//
// tasks indexes the global learning-task list that node.Members refers to.
// Every node's Theta is (re)initialized from its parent's before training,
// mirroring Algorithm 1's inheritance T^t_new.θ = T^t.θ. The recursion
// itself stays sequential (children inherit the parent's refined θ);
// parallelism lives inside each MetaTrain batch.
func TAML(ctx context.Context, node *cluster.TreeNode, tasks []*LearningTask, cfg Config, rootInit nn.Vector) float64 {
	if node.Theta == nil {
		if node.Parent != nil && node.Parent.Theta != nil {
			node.Theta = node.Parent.Theta.Clone()
		} else {
			node.Theta = rootInit.Clone()
		}
	}
	members := make([]*LearningTask, 0, len(node.Members))
	for _, i := range node.Members {
		members = append(members, tasks[i])
	}
	if node.IsLeaf() {
		return MetaTrain(ctx, node.Theta, members, cfg)
	}
	// Coarse-to-fine refinement: meta-train this node's initialization on
	// its whole cluster before the children specialize from it, so deeper
	// tree levels refine the coarser ones instead of starting over from the
	// raw inherited weights. (This is also why training time grows with the
	// number of clustering factors, as Table IV reports.)
	warm := cfg
	warm.MetaIters = (cfg.MetaIters + 1) / 2
	MetaTrain(ctx, node.Theta, members, warm)

	var lossSum float64
	delta := nn.NewVector(len(node.Theta))
	for _, child := range node.Children {
		child.Theta = node.Theta.Clone()
		lossSum += TAML(ctx, child, tasks, cfg, rootInit)
		diff := child.Theta.Clone()
		diff.Axpy(-1, node.Theta)
		delta.Axpy(1/float64(len(node.Children)), diff)
	}
	// Outer (Reptile-style) step toward the mean child initialization.
	node.Theta.Axpy(1, delta)
	return lossSum / float64(len(node.Children))
}
