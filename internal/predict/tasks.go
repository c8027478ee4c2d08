// Package predict turns the meta-learning machinery into per-worker
// mobility predictors: it builds learning tasks from workload histories,
// trains them with a selected algorithm (MAML / CTML / GTTAML-GT / GTTAML),
// wires the task-assignment-oriented loss (Eqs. 6–7), measures RMSE, MAE,
// and the matching rate MR (Def. 7), and exposes per-worker models that
// forecast future trajectories for the assignment stage.
package predict

import (
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/meta"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/traj"
)

// Caps keeping the O(n²)-ish similarity computations tractable.
const (
	maxFeaturePoints = 150 // location samples per task for Sim_d
	maxFeaturePOIs   = 40  // POIs per task for Sim_s
	poiRadius        = 5.0 // cells: POIs within this range of the routine
	sampleStride     = 2   // window stride when extracting samples
	supportFraction  = 0.5 // support/query split
)

// Model input features per step: normalized position (x, y) plus the
// displacement from the previous step amplified by DeltaGain. Normalized
// per-tick displacements are ~0.02, far too small for LSTM gates to resolve
// direction; the amplified delta channel makes velocity directly visible.
const (
	InputDims = 4
	DeltaGain = 20.0
)

// Featurize converts a window of model-space positions into per-step input
// vectors [x, y, Δx·gain, Δy·gain]; the first step's delta is zero.
func Featurize(win []geo.Point) [][]float64 {
	return FeaturizeInto(nil, win)
}

// FeaturizeInto is the allocation-free Featurize: it reuses dst's rows
// (growing as needed — rows sliced off by a previous shorter call are
// recovered from dst's capacity) and returns dst resized to len(win).
// Values are identical to Featurize.
func FeaturizeInto(dst [][]float64, win []geo.Point) [][]float64 {
	n := len(win)
	dst = dst[:cap(dst)]
	for len(dst) < n {
		dst = append(dst, nil)
	}
	dst = dst[:n]
	for i, p := range win {
		if len(dst[i]) < InputDims {
			dst[i] = make([]float64, InputDims)
		}
		f := dst[i][:InputDims]
		f[0], f[1] = p.X, p.Y
		f[2], f[3] = 0, 0
		if i > 0 {
			f[2] = (p.X - win[i-1].X) * DeltaGain
			f[3] = (p.Y - win[i-1].Y) * DeltaGain
		}
		dst[i] = f
	}
	return dst
}

// BuildLearningTasks converts every established (non-cold-start) worker of
// the workload into a meta.LearningTask: trajectory samples in model space
// split into support/query halves, each target weighted by f_w (Eq. 7),
// plus the clustering features of §III-B. It returns the tasks (parallel
// to the established workers, carrying their WorkerIDs) and the normalizer
// that maps between grid and model space.
func BuildLearningTasks(w *dataset.Workload, seqIn, seqOut int) ([]*meta.LearningTask, traj.Normalizer) {
	norm := traj.NewNormalizer(w.Params.Grid)
	fw := taskWeight(w.DensityIndex(), norm, DefaultDQ, DefaultKappa, DefaultDelta)
	var tasks []*meta.LearningTask
	for i := range w.Workers {
		wk := &w.Workers[i]
		if wk.New {
			continue
		}
		tasks = append(tasks, buildTask(w, wk, seqIn, seqOut, norm, fw))
	}
	return tasks, norm
}

// BuildTaskFor builds the learning task for a single worker (including
// cold-start workers, whose single on-boarding day yields a small support
// set for few-shot adaptation).
func BuildTaskFor(w *dataset.Workload, wk *dataset.Worker, seqIn, seqOut int) (*meta.LearningTask, traj.Normalizer) {
	norm := traj.NewNormalizer(w.Params.Grid)
	fw := taskWeight(w.DensityIndex(), norm, DefaultDQ, DefaultKappa, DefaultDelta)
	return buildTask(w, wk, seqIn, seqOut, norm, fw), norm
}

func buildTask(w *dataset.Workload, wk *dataset.Worker, seqIn, seqOut int, norm traj.Normalizer, fw func(target []float64) float64) *meta.LearningTask {
	samples := traj.ExtractSamplesMulti(wk.TrainDays, seqIn, seqOut, sampleStride)
	split := traj.Split(samples, supportFraction)

	// Every target's f_w, computed once into one backing array for the
	// task: the targets are fixed, so the loss reads them from the sample
	// instead of querying the density index on every gradient.
	weights := make([]float64, 0, len(samples)*seqOut)
	toSamples := func(src []traj.Sample) []nn.Sample {
		var out []nn.Sample
		for _, s := range src {
			ns := toNNSample(norm.NormSample(s))
			start := len(weights)
			for _, t := range ns.Out {
				weights = append(weights, fw(t))
			}
			ns.W = weights[start:len(weights):len(weights)]
			out = append(out, ns)
		}
		return out
	}
	task := &meta.LearningTask{WorkerID: wk.ID, Support: toSamples(split.Support), Query: toSamples(split.Query)}

	// Distribution feature: subsampled raw routine locations, with their
	// sorted projections for Sim_d.
	var pts []geo.Point
	for _, day := range wk.TrainDays {
		pts = append(pts, day.Points...)
	}
	task.Features.Points = subsamplePoints(pts, maxFeaturePoints)
	task.Features.SortProjections()

	// Spatial feature: POIs along the routine.
	pois := w.NearbyPOIs(task.Features.Points, poiRadius)
	if len(pois) > maxFeaturePOIs {
		stride := len(pois)/maxFeaturePOIs + 1
		var kept []geo.POI
		for i := 0; i < len(pois); i += stride {
			kept = append(kept, pois[i])
		}
		pois = kept
	}
	task.Features.POIs = pois
	return task
}

func toNNSample(s traj.Sample) nn.Sample {
	var out nn.Sample
	out.In = Featurize(s.In)
	for _, p := range s.Out {
		out.Out = append(out.Out, []float64{p.X, p.Y})
	}
	return out
}

func subsamplePoints(pts []geo.Point, max int) []geo.Point {
	if len(pts) <= max {
		return append([]geo.Point(nil), pts...)
	}
	stride := len(pts)/max + 1
	var out []geo.Point
	for i := 0; i < len(pts); i += stride {
		out = append(out, pts[i])
	}
	return out
}

// taskWeight builds the f_w of Eq. 7 from the workload's historical task
// distribution: f_w(l) = κ·|{τ : dis(τ, l) < d^q}| / ρ^t + δ, where the
// target point l arrives in model space and is denormalized before the
// density lookup. buildTask calls it once for every target.
func taskWeight(density *geo.DensityIndex, norm traj.Normalizer, dq, kappa, delta float64) func(target []float64) float64 {
	rho := density.Density(dq)
	return func(target []float64) float64 {
		loc := norm.Denorm(geo.Pt(target[0], target[1]))
		count := density.CountWithin(loc, dq)
		return kappa*float64(count)/rho + delta
	}
}

// Default hyperparameters of the task-assignment-oriented loss. κ and δ
// are set so that trajectory points at a task hotspot weigh a few times a
// background point — enough to bias training toward assignment-relevant
// regions without starving the rest of the trajectory of signal.
const (
	DefaultDQ    = 5.0 // d^q: task influence radius, cells (1 km)
	DefaultKappa = 0.3 // κ ∈ (0,1)
	DefaultDelta = 1.0 // δ ∈ ℝ₊
)
