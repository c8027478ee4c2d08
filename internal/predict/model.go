package predict

import (
	"math"

	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/traj"
)

// WorkerModel is one worker's personalized mobility predictor: the adapted
// Seq2Seq plus the matching rate MR measured on held-out data, which
// Theorem 2 converts into the worker's task-completion probability.
type WorkerModel struct {
	WorkerID int
	Model    nn.Model
	Norm     traj.Normalizer
	SeqIn    int
	SeqOut   int
	MR       float64

	// Reusable adaptation scratch: AdaptOn runs every platform tick for
	// every tracked worker, so its gradient and batch buffers persist on the
	// model rather than being reallocated per call.
	adaptGrad nn.Vector
	adaptBuf  []nn.Sample
	adaptRaw  []traj.Sample

	// Rollout scratch (PredictFutureInto): the normalized context window and
	// its feature rows persist on the model, so a rollout allocates nothing
	// beyond what the caller's dst needs. Eval scratch is separate so
	// EvaluateOnRoutine and forecasting never clobber each other's windows.
	rollWin  []geo.Point
	rollFeat [][]float64
	evalWin  []geo.Point
	evalFeat [][]float64
	evalRaw  []traj.Sample

	// version counts weight updates (AdaptOn steps). The forecast cache
	// keys entries by it, so adapting a model invalidates that worker's
	// cached forecasts without any explicit eviction call.
	version uint64
}

// Version identifies the current weights: it increments every time AdaptOn
// updates the model. Exact-reuse layers (ForecastCache) compare it to decide
// whether a memoized forecast is still from these weights.
func (wm *WorkerModel) Version() uint64 { return wm.version }

// BumpVersion marks the model's weights as changed after an external
// mutation (e.g. direct SetWeights), so cached forecasts are invalidated.
func (wm *WorkerModel) BumpVersion() { wm.version++ }

// PredictFuture forecasts the worker's next horizon locations given the
// recent trajectory (grid coordinates, most recent last). The model is
// rolled forward seqOut points at a time, feeding predictions back as
// context, until horizon points are produced. The returned slice is freshly
// allocated; hot paths that can reuse an output buffer should call
// PredictFutureInto.
func (wm *WorkerModel) PredictFuture(recent []geo.Point, horizon int) []geo.Point {
	if horizon <= 0 || len(recent) == 0 {
		return nil
	}
	return wm.PredictFutureInto(make([]geo.Point, 0, horizon), recent, horizon)
}

// PredictFutureInto is the allocation-free PredictFuture: it appends the
// horizon forecast points to dst and returns it. With a dst of sufficient
// capacity the rollout performs zero allocations — the context window and
// feature rows live in persistent model scratch. Outputs are bit-identical
// to PredictFuture.
func (wm *WorkerModel) PredictFutureInto(dst []geo.Point, recent []geo.Point, horizon int) []geo.Point {
	if horizon <= 0 || len(recent) == 0 {
		return dst
	}
	wm.fillWindow(recent)
	return wm.rollout(dst, horizon)
}

// fillWindow builds the normalized SeqIn context window in wm.rollWin from
// the recent trace: the last SeqIn points normalized, left-padded in a
// single pass by repeating the oldest included point — the same window the
// old prepend-in-a-loop construction produced, without its O(SeqIn²) cost.
func (wm *WorkerModel) fillWindow(recent []geo.Point) []geo.Point {
	if cap(wm.rollWin) < wm.SeqIn {
		wm.rollWin = make([]geo.Point, wm.SeqIn)
	}
	win := wm.rollWin[:wm.SeqIn]
	start := len(recent) - wm.SeqIn
	if start < 0 {
		start = 0
	}
	pad := wm.SeqIn - (len(recent) - start)
	for i, p := range recent[start:] {
		win[pad+i] = wm.Norm.Norm(p)
	}
	if pad > 0 && pad < len(win) {
		first := win[pad]
		for i := 0; i < pad; i++ {
			win[i] = first
		}
	}
	wm.rollWin = win
	return win
}

// rollout runs the autoregressive forecast from the prepared wm.rollWin,
// appending horizon denormalized points to dst. The window shifts in place
// (bit-identical to the old append-reallocate shift).
func (wm *WorkerModel) rollout(dst []geo.Point, horizon int) []geo.Point {
	win := wm.rollWin
	produced := 0
	for produced < horizon {
		wm.rollFeat = FeaturizeInto(wm.rollFeat, win)
		preds := wm.Model.Predict(wm.rollFeat, wm.SeqOut)
		if len(preds) == 0 {
			break // degenerate SeqOut; never loop forever
		}
		for _, p := range preds {
			q := geo.Pt(p[0], p[1])
			dst = append(dst, wm.Norm.Denorm(q))
			produced++
			copy(win, win[1:])
			win[len(win)-1] = q
			if produced == horizon {
				break
			}
		}
	}
	return dst
}

// AdaptOn fine-tunes the worker's model on an observed routine (e.g. the
// day's trace the platform collected), taking a few SGD steps on samples
// extracted from it. It implements the platform's continual "dynamic
// prediction": models keep tracking workers whose patterns drift. The loss
// is plain MSE in grid-cell scale. It is a no-op when the routine is too
// short to yield a sample.
func (wm *WorkerModel) AdaptOn(r traj.Routine, steps int, lr float64) {
	if steps <= 0 || lr <= 0 {
		return
	}
	wm.adaptRaw = traj.ExtractSamplesInto(wm.adaptRaw[:0], r, wm.SeqIn, wm.SeqOut, sampleStride)
	raw := wm.adaptRaw
	if len(raw) == 0 {
		return
	}
	batch := wm.adaptBuf[:0]
	for _, s := range raw {
		batch = append(batch, toNNSample(wm.Norm.NormSample(s)))
	}
	wm.adaptBuf = batch
	loss := nn.Scaled{Inner: nn.MSE{}, Factor: wm.Norm.Scale * wm.Norm.Scale}
	if len(wm.adaptGrad) != wm.Model.NumParams() {
		wm.adaptGrad = nn.NewVector(wm.Model.NumParams())
	}
	opt := nn.SGD{LR: lr, ClipNorm: 5}
	for s := 0; s < steps; s++ {
		wm.Model.BatchGrad(batch, loss, wm.adaptGrad)
		opt.Step(wm.Model.Weights(), wm.adaptGrad)
	}
	// The weights changed: cached forecasts for this worker are stale.
	wm.version++
}

// MatchingRate is MR(r, r̂) of Def. 7: the fraction of positions where the
// predicted location falls within distance a (cells) of the true location.
// Mismatched lengths compare over the common prefix; empty input yields 0.
func MatchingRate(actual, predicted []geo.Point, a float64) float64 {
	n := len(actual)
	if len(predicted) < n {
		n = len(predicted)
	}
	if n == 0 {
		return 0
	}
	matched := 0
	for i := 0; i < n; i++ {
		if actual[i].Dist(predicted[i]) <= a {
			matched++
		}
	}
	return float64(matched) / float64(n)
}

// EvalResult aggregates the prediction quality metrics of §IV-A in grid
// cells: root mean squared error, mean absolute error, and matching rate.
type EvalResult struct {
	RMSE float64
	MAE  float64
	MR   float64
	N    int // number of predicted points scored
}

// evalAccum incrementally builds an EvalResult.
type evalAccum struct {
	se, ae  float64
	matched int
	n       int
}

func (a *evalAccum) add(actual, predicted geo.Point, radius float64) {
	d := actual.Dist(predicted)
	a.se += d * d
	a.ae += d
	if d <= radius {
		a.matched++
	}
	a.n++
}

// merge folds another accumulator into a. Callers that evaluate workers
// concurrently give each worker its own accumulator and merge them in worker
// order, so the floating-point reduction is the same at every parallelism
// level.
func (a *evalAccum) merge(b *evalAccum) {
	a.se += b.se
	a.ae += b.ae
	a.matched += b.matched
	a.n += b.n
}

func (a *evalAccum) result() EvalResult {
	if a.n == 0 {
		return EvalResult{}
	}
	return EvalResult{
		RMSE: math.Sqrt(a.se / float64(a.n)),
		MAE:  a.ae / float64(a.n),
		MR:   float64(a.matched) / float64(a.n),
		N:    a.n,
	}
}

// EvaluateOnRoutine scores the model's one-shot predictions sliding over a
// ground-truth routine: for every window of seqIn observed points it
// predicts the next seqOut and scores them against the truth.
func (wm *WorkerModel) EvaluateOnRoutine(r traj.Routine, radius float64) EvalResult {
	var acc evalAccum
	wm.accumulateRoutine(r, radius, &acc)
	return acc.result()
}

func (wm *WorkerModel) accumulateRoutine(r traj.Routine, radius float64, acc *evalAccum) {
	wm.evalRaw = traj.ExtractSamplesInto(wm.evalRaw[:0], r, wm.SeqIn, wm.SeqOut, sampleStride)
	for _, s := range wm.evalRaw {
		if cap(wm.evalWin) < len(s.In) {
			wm.evalWin = make([]geo.Point, len(s.In))
		}
		win := wm.evalWin[:len(s.In)]
		for i, p := range s.In {
			win[i] = wm.Norm.Norm(p)
		}
		wm.evalFeat = FeaturizeInto(wm.evalFeat, win)
		preds := wm.Model.Predict(wm.evalFeat, wm.SeqOut)
		for i, p := range preds {
			acc.add(s.Out[i], wm.Norm.Denorm(geo.Pt(p[0], p[1])), radius)
		}
	}
}
