// Package sim implements the learning-task similarity measures of §III-B:
// kernel-based spatial feature similarity over POI sequences (Eq. 1),
// average-cosine learning-path similarity over k-step adaptation gradients
// (Eq. 2), Wasserstein-distance-based distribution similarity (Eq. 3), and
// the cluster quality function Q(G) (Eq. 4) with the player utility (Eq. 5)
// built from it.
//
// Every similarity is normalized into [0, 1] (0 = completely dissimilar,
// 1 = identical) so that the quality thresholds Θ and the singleton utility
// γ are interpretable uniformly across metrics:
//
//   - Spatial already lands in [0, 1] because the kernel is bounded by 1.
//   - LearningPath maps mean cosine c ∈ [−1, 1] to (1+c)/2.
//   - Distribution maps Wasserstein distance W ∈ [0, ∞) to 1/(1+W), a
//     bounded monotone variant of the paper's 1/W that avoids the
//     singularity at W = 0 while inducing the same similarity ordering.
package sim

import (
	"math"
	"sort"

	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/nn"
)

// Metric selects one of the three learning-task similarity factors.
type Metric int

// The three clustering factors of §III-B, in the order the paper uses them
// in the multi-level similarity function list F^s.
const (
	Distribution Metric = iota // Sim_d, Eq. 3
	Spatial                    // Sim_s, Eq. 1
	LearningPath               // Sim_l, Eq. 2
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Distribution:
		return "Sim_d"
	case Spatial:
		return "Sim_s"
	case LearningPath:
		return "Sim_l"
	default:
		return "Sim(?)"
	}
}

// Features carries the per-learning-task representations the similarity
// metrics consume: the POI sequence 𝕍 (spatial feature), the k-step gradient
// path ℤ (learning path), and the raw location distribution.
type Features struct {
	POIs   []geo.POI
	Path   []nn.Vector
	Points []geo.Point
	// Sorted holds Points' DefaultProjections projections, each sorted,
	// one run of len(Points) after another (SortProjections). Sim_d reads
	// them instead of projecting and sorting Points for every pair; without
	// them it does that.
	Sorted []float64
}

// SortProjections fills f.Sorted from f.Points, which must not change
// afterwards.
func (f *Features) SortProjections() {
	n := len(f.Points)
	f.Sorted = make([]float64, DefaultProjections*n)
	for k := 0; k < DefaultProjections; k++ {
		project(f.Sorted[k*n:(k+1)*n], f.Points, k, DefaultProjections)
		sort.Float64s(f.Sorted[k*n : (k+1)*n])
	}
}

// Similarity computes the chosen metric between two feature sets.
func Similarity(m Metric, a, b *Features) float64 {
	switch m {
	case Distribution:
		if a.Sorted != nil && b.Sorted != nil {
			return distributionSimSorted(a, b)
		}
		return DistributionSim(a.Points, b.Points)
	case Spatial:
		return SpatialSim(a.POIs, b.POIs)
	case LearningPath:
		return LearningPathSim(a.Path, b.Path)
	default:
		return 0
	}
}

// SpatialKernelBandwidth is the bandwidth h of the Gaussian kernel K_h in
// Eq. 1, in grid cells.
const SpatialKernelBandwidth = 8.0

// spatialTypeFactor discounts kernel mass between POIs of different types,
// following the mixed geographic/type kernel of Liu et al. [24].
const spatialTypeFactor = 0.5

// SpatialSim is Sim_s of Eq. 1: the mean kernel density between every POI
// pair of the two sequences, normalized to [0, 1]. Either side being empty
// yields 0.
func SpatialSim(a, b []geo.POI) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inv2h2 := 1 / (2 * SpatialKernelBandwidth * SpatialKernelBandwidth)
	var sum float64
	for _, va := range a {
		for _, vb := range b {
			k := math.Exp(-va.Loc.DistSq(vb.Loc) * inv2h2)
			if va.Type != vb.Type {
				k *= spatialTypeFactor
			}
			sum += k
		}
	}
	s := sum / float64(len(a)*len(b))
	return clamp01(s)
}

// LearningPathSim is Sim_l of Eq. 2: the average cosine similarity between
// the step-aligned gradients of two adaptation paths, mapped into [0, 1].
// Paths of unequal length compare over their common prefix; an empty common
// prefix yields 0.
func LearningPathSim(a, b []nn.Vector) float64 {
	k := len(a)
	if len(b) < k {
		k = len(b)
	}
	if k == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < k; i++ {
		sum += a[i].CosineSim(b[i])
	}
	return clamp01((1 + sum/float64(k)) / 2)
}

// DistributionScale is the characteristic Wasserstein distance (in cells)
// at which two location distributions count as half-similar. It calibrates
// Sim_d so that same-neighbourhood workers land around 0.4–0.7 and
// cross-city pairs near 0 — the range the quality thresholds Θ and the
// singleton utility γ are expressed in.
const DistributionScale = 8.0

// DistributionSim is Sim_d of Eq. 3: similarity inversely proportional to
// the Wasserstein distance between the two tasks' location distributions,
// computed as 1/(1+W/DistributionScale) with W the sliced 2-D
// Wasserstein-1 distance.
func DistributionSim(a, b []geo.Point) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return distributionOf(SlicedWasserstein(a, b, DefaultProjections))
}

// distributionSimSorted is DistributionSim over the sorted projections of
// both sides: the same sorted values SlicedWasserstein would produce (the
// sort is deterministic on its input), swept in the same order, so the
// same bits.
func distributionSimSorted(a, b *Features) float64 {
	na, nb := len(a.Points), len(b.Points)
	if na == 0 || nb == 0 {
		return 0
	}
	var sum float64
	for k := 0; k < DefaultProjections; k++ {
		sum += wasserstein1DSorted(a.Sorted[k*na:(k+1)*na], b.Sorted[k*nb:(k+1)*nb])
	}
	return distributionOf(sum / DefaultProjections)
}

func distributionOf(w float64) float64 {
	return clamp01(1 / (1 + w/DistributionScale))
}

// DefaultProjections is the number of fixed projection directions used by
// SlicedWasserstein. Eight evenly spaced angles are plenty for 2-D.
const DefaultProjections = 8

// Wasserstein1D returns the exact 1-Wasserstein (earth mover's) distance
// between the empirical distributions of xs and ys. Inputs need not share a
// length; the distance is ∫|F_x⁻¹(q) − F_y⁻¹(q)| dq computed by sweeping the
// merged quantile breakpoints. Either side being empty yields 0.
func Wasserstein1D(xs, ys []float64) float64 {
	if len(xs) == 0 || len(ys) == 0 {
		return 0
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	return wasserstein1DInPlace(a, b)
}

// wasserstein1DInPlace is Wasserstein1D on non-empty slices it may reorder.
func wasserstein1DInPlace(a, b []float64) float64 {
	sort.Float64s(a)
	sort.Float64s(b)
	return wasserstein1DSorted(a, b)
}

// wasserstein1DSorted is Wasserstein1D on non-empty sorted slices.
func wasserstein1DSorted(a, b []float64) float64 {
	na, nb := float64(len(a)), float64(len(b))
	var dist, q float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		qa := float64(i+1) / na
		qb := float64(j+1) / nb
		qNext := math.Min(qa, qb)
		dist += (qNext - q) * math.Abs(a[i]-b[j])
		q = qNext
		if qa <= qb {
			i++
		}
		if qb <= qa {
			j++
		}
	}
	return dist
}

// SlicedWasserstein approximates the 2-D Wasserstein-1 distance between two
// point sets by averaging the exact 1-D distance over nProj evenly spaced
// projection directions in [0, π).
func SlicedWasserstein(a, b []geo.Point, nProj int) float64 {
	if nProj <= 0 {
		nProj = DefaultProjections
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	pa := make([]float64, len(a))
	pb := make([]float64, len(b))
	var sum float64
	for k := 0; k < nProj; k++ {
		project(pa, a, k, nProj)
		project(pb, b, k, nProj)
		sum += wasserstein1DInPlace(pa, pb) // both are refilled per projection
	}
	return sum / float64(nProj)
}

// project writes the projections of pts onto direction k of nProj evenly
// spaced in [0, π) into dst.
func project(dst []float64, pts []geo.Point, k, nProj int) {
	theta := math.Pi * float64(k) / float64(nProj)
	c, s := math.Cos(theta), math.Sin(theta)
	for i, p := range pts {
		dst[i] = c*p.X + s*p.Y
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
