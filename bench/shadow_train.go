package main

import (
	"context"
	"math/rand"
	"time"

	"github.com/spatialcrowd/tamp/internal/cluster"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/meta"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/sim"
)

// gtmcThreshold is the cluster-quality threshold predict.Train clusters
// with (its unexported clusterThreshold).
const gtmcThreshold = 0.5

// shadowTraining separates the layers under predict.Train from outside: it
// walks the stages Train composes for GTTAML — learning-task construction,
// learning paths, the similarity matrices, GTMC clustering, TAML
// meta-training, per-worker adaptation — through their public functions
// with a span around each, on the configuration the traced Train ran with,
// then times the neural-network kernels those stages are made of.
func (t *tracer) shadowTraining(ctx context.Context, w *dataset.Workload, opts predict.Options, pred *predict.Result) error {
	cfg := pred.Trained.Cfg
	cfg.Rng = rand.New(rand.NewSource(opts.Seed + 7))
	var tasks []*meta.LearningTask
	end := t.span("predict.tasks")
	tasks, _ = predict.BuildLearningTasks(w, pred.Options.SeqIn, pred.Options.SeqOut)
	end()

	init := cfg.NewModel().Weights().Clone()
	end = t.span("meta.paths")
	err := meta.ComputeLearningPaths(ctx, tasks, cfg, init)
	end()
	if err != nil {
		return err
	}
	metrics := pred.Trained.Metrics
	matrices := make([]*sim.Matrix, len(metrics))
	end = t.span("sim.similarity")
	for i, metric := range metrics {
		matrices[i] = sim.NewMatrixCtx(ctx, len(tasks), cfg.Parallelism, func(a, b int) float64 {
			return sim.Similarity(metric, &tasks[a].Features, &tasks[b].Features)
		})
	}
	end()
	ccfg := cluster.DefaultConfig(cfg.Rng)
	ccfg.Metrics = metrics
	ccfg.UseGame = true
	for range metrics {
		ccfg.Thresholds = append(ccfg.Thresholds, gtmcThreshold)
	}
	end = t.span("cluster.gtmc")
	tree := cluster.BuildTree(matrices, ccfg)
	end()
	end = t.span("meta.train")
	meta.TAML(ctx, tree, tasks, cfg, init)
	end()
	if err := ctx.Err(); err != nil {
		return err
	}
	trained := &meta.Trained{Algorithm: meta.AlgGTTAML, Tree: tree, Tasks: tasks, Cfg: cfg, Matrices: matrices, Metrics: metrics}
	var model nn.Model
	for i := range tasks {
		end = t.span("meta.adapt")
		model = trained.AdaptedModelRNG(i, cfg.Rng)
		end()
	}

	// The kernels, on the first worker's adapted model and samples. They
	// run for microseconds, so they are timed bare instead of under a span.
	samples := tasks[0].Support
	grad := nn.NewVector(model.NumParams())
	adam := nn.NewAdam(cfg.MetaLR)
	bare := func(name string, fn func()) {
		start := time.Now()
		fn()
		t.sample(name, float64(time.Since(start).Nanoseconds())/1e3)
	}
	for rep := 0; rep < 8; rep++ {
		for _, s := range samples {
			bare("nn.predict", func() { model.Predict(s.In, len(s.Out)) })
			bare("nn.grad", func() { model.Grad(s.In, s.Out, cfg.Loss, grad) })
		}
		bare("nn.batchgrad", func() { model.BatchGrad(samples, cfg.Loss, grad) })
		bare("nn.adam", func() { adam.Step(model.Weights(), grad) })
	}
	return nil
}
