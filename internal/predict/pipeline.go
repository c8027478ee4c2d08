package predict

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/spatialcrowd/tamp/internal/ckpt"
	"github.com/spatialcrowd/tamp/internal/cluster"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/meta"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/par"
	"github.com/spatialcrowd/tamp/internal/sim"
	"github.com/spatialcrowd/tamp/internal/traj"
)

// Options configures the offline training stage of the platform.
type Options struct {
	// Algorithm is one of meta.AlgMAML, meta.AlgCTML, meta.AlgGTTAMLGT,
	// meta.AlgGTTAML (default).
	Algorithm string
	// SeqIn/SeqOut are the prediction window lengths (defaults 5 and 1,
	// the bold settings of Table III).
	SeqIn, SeqOut int
	// WeightedLoss selects the task-assignment-oriented loss of Eq. 6; the
	// plain MSE is used otherwise (the "-loss" algorithm variants).
	WeightedLoss bool
	// MatchRadius is a of Def. 7 in cells (default 1.5).
	MatchRadius float64
	// Hidden overrides the recurrent hidden size (default 16).
	Hidden int
	// MetaIters overrides meta-training iterations (default 30).
	MetaIters int
	// MetaLR/AdaptLR/AdaptSteps override the meta-learning rates α and β
	// and the inner-loop step count k (0 = package defaults).
	MetaLR, AdaptLR float64
	AdaptSteps      int
	// Metrics optionally restricts the GTMC clustering factors (default
	// Sim_d, Sim_s, Sim_l). Used by the Table IV/VI ablations.
	Metrics []sim.Metric
	// Seed drives all randomness.
	Seed int64
	// CheckpointDir, when set, makes meta-training crash-resumable: the
	// trainer snapshots θ, loss accumulators, and the exact RNG stream
	// position at iteration boundaries (atomic temp-file+rename writes).
	// Re-running Train with the same options and directory fast-forwards
	// completed segments and resumes the interrupted one, producing models
	// bit-identical to an uninterrupted run. The directory is created if
	// missing.
	CheckpointDir string
	// CheckpointEvery is the snapshot interval in meta-iterations
	// (default 10).
	CheckpointEvery int
	// OnCheckpoint, when set alongside CheckpointDir, observes each
	// snapshot — progress reporting, and the hook tests use to kill a run
	// at an exact checkpoint boundary.
	OnCheckpoint func(scope string, iter int)
	// Parallelism bounds the worker pool used by meta-training batches,
	// per-worker adaptation, and evaluation (0 = GOMAXPROCS). Results are
	// bit-identical at every parallelism level; see internal/par.
	Parallelism int
}

// DefaultMatchRadius is a of Def. 7 in grid cells (0.3 km).
const DefaultMatchRadius = 1.5

// clusterThreshold is Θ_j: a cluster whose quality under its split metric
// already reaches this value is specific enough and is not re-clustered by
// the next factor. Similarities are bounded transforms (1/(1+W) for Sim_d),
// so absolute qualities sit well below 1; 0.5 re-clusters moderately
// heterogeneous clusters while leaving tight ones alone.
const clusterThreshold = 0.5

func (o *Options) fill() {
	if o.Algorithm == "" {
		o.Algorithm = meta.AlgGTTAML
	}
	if o.SeqIn <= 0 {
		o.SeqIn = 5
	}
	if o.SeqOut <= 0 {
		o.SeqOut = 1
	}
	if o.MatchRadius <= 0 {
		o.MatchRadius = DefaultMatchRadius
	}
	if o.Hidden <= 0 {
		o.Hidden = 16
	}
	if o.MetaIters <= 0 {
		o.MetaIters = 30
	}
	if o.MetaLR <= 0 {
		o.MetaLR = 0.01
	}
	if o.AdaptLR <= 0 {
		// The loss is trained in grid-cell scale (see Train); inner-loop
		// steps must stay small or few-shot adaptation overshoots.
		o.AdaptLR = 0.002
	}
	if len(o.Metrics) == 0 {
		o.Metrics = []sim.Metric{sim.Distribution, sim.Spatial, sim.LearningPath}
	}
}

// Result is the trained prediction stage: one WorkerModel per workload
// worker (cold-start workers included, adapted through tree placement), the
// underlying meta-training artifacts, and the aggregate test-set evaluation.
type Result struct {
	Options Options
	// Trained is the meta-trained tree, released (meta.Trained.Release):
	// the training samples and learning paths are gone, cold-start
	// placement still works.
	Trained *meta.Trained
	Models  map[int]*WorkerModel // worker ID → model
	// Forecasts memoizes the rollouts of Models for every simulation run
	// over this Result (platform.Run.Forecasts): a forecast is a pure
	// function of (weights, window, horizon) and the windows are the
	// workers' true traces whatever the assigner, so a second pass over the
	// test horizon — another assigner, another sweep point, a chaos re-run —
	// pays only for the windows the first did not see. Each worker holds one
	// entry per tick of the test horizon the set was trained for; the LRU
	// default (DefaultCacheMaxPerWorker) would have evicted a tick's entry
	// long before the next pass asks for it.
	Forecasts *ForecastCache
	Norm      traj.Normalizer
	Eval      EvalResult
	TrainTime time.Duration
}

// Train runs the offline stage end to end: build learning tasks, meta-train
// with the chosen algorithm, adapt per-worker models (placing cold-start
// workers on the tree), measure each worker's matching rate on held-out
// query data, and evaluate on the test-day routines.
//
// Meta-training batches, per-worker adaptation, and evaluation fan out on a
// pool of opts.Parallelism goroutines; cancelling ctx abandons the stage and
// returns ctx.Err().
func Train(ctx context.Context, w *dataset.Workload, opts Options) (*Result, error) {
	opts.fill()
	// Root span of the offline stage: sub-phases (task building, meta
	// training, per-worker adaptation, evaluation) nest under it, so
	// tamp_phase_seconds decomposes TrainTime hierarchically.
	ctx, endTrain := obs.Span(ctx, "predict.train")
	defer endTrain()
	reg := obs.RegistryFrom(ctx)
	// With checkpointing on, the training RNG runs on a restorable counting
	// source — same stream as rand.NewSource, but its position can be
	// snapshotted and replayed so resumed runs are bit-identical.
	var src *ckpt.Source
	rng := rand.New(rand.NewSource(opts.Seed + 7))
	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("predict: checkpoint dir: %w", err)
		}
		src = ckpt.NewSource(opts.Seed + 7)
		rng = rand.New(src)
	}

	cfg := meta.DefaultConfig(rng)
	cfg.InDim = InputDims
	cfg.Hidden = opts.Hidden
	cfg.MetaIters = opts.MetaIters
	cfg.Parallelism = opts.Parallelism
	if opts.MetaLR > 0 {
		cfg.MetaLR = opts.MetaLR
	}
	if opts.AdaptLR > 0 {
		cfg.AdaptLR = opts.AdaptLR
	}
	if opts.AdaptSteps > 0 {
		cfg.AdaptSteps = opts.AdaptSteps
	}
	if src != nil {
		cfg.Checkpoint = &meta.CheckpointConfig{
			Dir:          opts.CheckpointDir,
			Every:        opts.CheckpointEvery,
			Source:       src,
			OnCheckpoint: opts.OnCheckpoint,
		}
	}
	{
		// Train against the loss measured in grid cells (factor = scale²):
		// unit-normalized displacements are tiny, and unscaled gradients
		// would be too weak for the few-step adaptation regime.
		norm := traj.NewNormalizer(w.Params.Grid)
		var base nn.Loss = nn.MSE{}
		if opts.WeightedLoss {
			base = nn.WeightedMSE{Weight: TaskOrientedWeight(
				w.DensityIndex(), norm, DefaultDQ, DefaultKappa, DefaultDelta)}
		}
		cfg.Loss = nn.Scaled{Inner: base, Factor: norm.Scale * norm.Scale}
	}

	var tasks []*meta.LearningTask
	var norm traj.Normalizer
	obs.Time(ctx, "predict.tasks", func() {
		tasks, norm = BuildLearningTasks(w, opts.SeqIn, opts.SeqOut)
	})
	if len(tasks) == 0 {
		return nil, fmt.Errorf("predict: workload has no established workers")
	}

	start := time.Now()
	mctx, endMeta := obs.Span(ctx, "predict.meta")
	var trained *meta.Trained
	var err error
	switch opts.Algorithm {
	case meta.AlgMAML:
		trained, err = meta.TrainMAML(mctx, tasks, cfg)
	case meta.AlgCTML:
		trained, err = meta.TrainCTML(mctx, tasks, cfg)
	case meta.AlgGTTAML, meta.AlgGTTAMLGT:
		ccfg := cluster.DefaultConfig(rng)
		ccfg.Metrics = opts.Metrics
		ccfg.Thresholds = make([]float64, len(opts.Metrics))
		for i := range ccfg.Thresholds {
			ccfg.Thresholds[i] = clusterThreshold
		}
		ccfg.UseGame = opts.Algorithm == meta.AlgGTTAML
		trained, err = meta.TrainGTTAML(mctx, tasks, cfg, ccfg)
	default:
		endMeta()
		return nil, fmt.Errorf("predict: unknown algorithm %q", opts.Algorithm)
	}
	endMeta()
	if err != nil {
		return nil, err
	}
	trainTime := time.Since(start)

	res := &Result{
		Options:   opts,
		Trained:   trained,
		Models:    map[int]*WorkerModel{},
		Forecasts: NewForecastCache(w.Params.TestDays * w.Params.TicksPerDay),
		Norm:      norm,
		TrainTime: trainTime,
	}

	// Per-worker adaptation: established workers adapt from their leaf
	// initialization, cold-start workers are placed on the tree. Workers are
	// independent given the trained tree, so adaptation fans out on the pool.
	// Each index writes one slot of an index-addressed slice and derives a
	// private RNG (the transient model initialization it feeds is always
	// overwritten by trained weights, so the seed only needs to be private,
	// not coordinated) — the result is identical at every parallelism level.
	taskByWorker := map[int]int{}
	for i, t := range tasks {
		taskByWorker[t.WorkerID] = i
	}
	actx, endAdapt := obs.Span(ctx, "predict.adapt")
	models := make([]*WorkerModel, len(w.Workers))
	if err := par.ForEach(actx, len(w.Workers), opts.Parallelism, func(i int) error {
		wk := &w.Workers[i]
		wrng := rand.New(rand.NewSource(opts.Seed + 1031*int64(i)))
		if ti, ok := taskByWorker[wk.ID]; ok {
			models[i] = res.newWorkerModel(wk.ID, trained.AdaptedModelRNG(ti, wrng), tasks[ti])
		} else {
			// Cold-start worker: build its short task, place it on the
			// tree, adapt from the most similar node's initialization.
			task, _ := BuildTaskFor(w, wk, opts.SeqIn, opts.SeqOut)
			models[i] = res.newWorkerModel(wk.ID, trained.AdaptNewRNG(task, wrng), task)
		}
		return nil
	}); err != nil {
		endAdapt()
		return nil, err
	}
	endAdapt()
	for i := range w.Workers {
		res.Models[w.Workers[i].ID] = models[i]
	}

	// Aggregate evaluation over test-day routines (established workers,
	// matching the paper's protocol of scoring the prediction stage on the
	// test split). Each worker scores into its own accumulator; the merge
	// runs sequentially in worker order so the floating-point reduction is
	// parallelism-independent.
	ectx, endEval := obs.Span(ctx, "predict.eval")
	accs := make([]evalAccum, len(w.Workers))
	if err := par.ForEach(ectx, len(w.Workers), opts.Parallelism, func(i int) error {
		wk := &w.Workers[i]
		if wk.New {
			return nil
		}
		model := models[i]
		for _, day := range wk.TestDays {
			model.accumulateRoutine(day, opts.MatchRadius, &accs[i])
		}
		return nil
	}); err != nil {
		endEval()
		return nil, err
	}
	var acc evalAccum
	for i := range accs {
		acc.merge(&accs[i])
	}
	res.Eval = acc.result()
	endEval()
	// End-of-stage quality gauges: the numbers §IV scores the prediction
	// stage by, scrapeable instead of printout-only.
	reg.Gauge("tamp_pred_rmse").Set(res.Eval.RMSE)
	reg.Gauge("tamp_pred_mae").Set(res.Eval.MAE)
	reg.Gauge("tamp_pred_mr").Set(res.Eval.MR)
	reg.Gauge("tamp_train_loss").Set(trained.MeanLoss)
	// Nothing reads the featurised samples or the learning paths from here
	// on, and they outweigh the models several times over.
	trained.Release()
	return res, nil
}

// newWorkerModel wraps an adapted network and measures its matching rate on
// the worker's held-out query samples (the platform's proxy for MR before
// any test-day data exists).
func (r *Result) newWorkerModel(workerID int, m nn.Model, task *meta.LearningTask) *WorkerModel {
	wm := &WorkerModel{
		WorkerID: workerID,
		Model:    m,
		Norm:     r.Norm,
		SeqIn:    r.Options.SeqIn,
		SeqOut:   r.Options.SeqOut,
		MR:       queryMatchingRate(m, task, r.Norm, r.Options.MatchRadius),
	}
	return wm
}

func queryMatchingRate(m nn.Model, task *meta.LearningTask, norm traj.Normalizer, radius float64) float64 {
	samples := task.Query
	if len(samples) == 0 {
		samples = task.Support
	}
	if len(samples) == 0 {
		return 0
	}
	matched, n := 0, 0
	for _, s := range samples {
		preds := m.Predict(s.In, len(s.Out))
		for i := range preds {
			p := norm.Denorm(geo.Pt(preds[i][0], preds[i][1]))
			a := norm.Denorm(geo.Pt(s.Out[i][0], s.Out[i][1]))
			if p.Dist(a) <= radius {
				matched++
			}
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(matched) / float64(n)
}
