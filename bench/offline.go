package main

import (
	"context"

	"github.com/spatialcrowd/tamp"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/predict"
)

// offlineWorkload is the researcher's path (cmd/tampsim): train the
// predictors from scratch, then score them by the assignment they produce.
// One round is one whole experiment, so the neural-network forward and
// backward passes, meta-learning, clustering and similarity all sit inside
// the op.
type offlineWorkload struct {
	w *dataset.Workload
}

func (o *offlineWorkload) setup(_ context.Context, seed int64) error {
	o.w = withTaskStream(dataset.Generate(offlineParams()), seed)
	return nil
}

func (o *offlineWorkload) round(ctx context.Context, m *meter, tr *tracer) error {
	var q quality
	var pred *predict.Result
	m.begin()
	tr.start()
	timedOp(m, tr, "offline.experiment", func() (err error) {
		end := tr.span("predict.train")
		pred, err = predict.Train(ctx, o.w, offlineTrainOptions())
		end()
		if err != nil {
			return err
		}
		end = tr.span("platform.simulate")
		sm, err := tamp.Simulate(ctx, o.w, pred, tamp.NewPPI())
		end()
		q = simQuality(sm)
		return err
	})
	m.end(o.w.Params.TestDays*o.w.Params.TicksPerDay, q)
	if pred == nil || !tr.active() {
		return nil
	}
	tr.sample("predict.eval_mr", pred.Eval.MR)
	return tr.shadowTraining(ctx, o.w, offlineTrainOptions(), pred)
}
