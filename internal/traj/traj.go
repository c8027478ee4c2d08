// Package traj models worker mobility routines and the fixed-length
// trajectory samples the mobility prediction models are trained on.
//
// A Routine (Def. 2) is a series of locations with timestamps describing one
// worker's movement. Time is discrete: one tick is the platform's batch
// window (2 minutes in the paper's setting), and routines carry one location
// per tick.
package traj

import (
	"fmt"
	"math"

	"github.com/spatialcrowd/tamp/internal/geo"
)

// TicksPerTimeUnit converts the paper's "time unit" (10 minutes) into ticks
// (one 2-minute assignment batch per tick).
const TicksPerTimeUnit = 5

// Stop is one timestamped location on a routine.
type Stop struct {
	Loc  geo.Point
	Tick int
}

// Routine is a worker's movement trace: locations at consecutive ticks
// beginning at StartTick. It is the r = {(l₁,t₁), …} of Def. 2 with the
// timestamps made implicit by regular sampling.
type Routine struct {
	StartTick int
	Points    []geo.Point
}

// Len returns the number of points on r.
func (r Routine) Len() int { return len(r.Points) }

// EndTick returns the tick of the last point, or StartTick-1 when empty.
func (r Routine) EndTick() int { return r.StartTick + len(r.Points) - 1 }

// At returns the location at the given tick. Ticks before the routine start
// clamp to the first point and ticks past the end clamp to the last, which
// models a worker idling at their endpoint.
func (r Routine) At(tick int) geo.Point {
	if len(r.Points) == 0 {
		return geo.Point{}
	}
	i := tick - r.StartTick
	if i < 0 {
		i = 0
	}
	if i >= len(r.Points) {
		i = len(r.Points) - 1
	}
	return r.Points[i]
}

// Slice returns the sub-routine covering ticks [from, to).
// Out-of-range ticks are clipped.
func (r Routine) Slice(from, to int) Routine {
	lo := from - r.StartTick
	hi := to - r.StartTick
	if lo < 0 {
		lo = 0
	}
	if hi > len(r.Points) {
		hi = len(r.Points)
	}
	if lo >= hi {
		return Routine{StartTick: from}
	}
	return Routine{StartTick: r.StartTick + lo, Points: r.Points[lo:hi]}
}

// Length returns the total travelled distance along r in cells.
func (r Routine) Length() float64 {
	var d float64
	for i := 1; i < len(r.Points); i++ {
		d += r.Points[i].Dist(r.Points[i-1])
	}
	return d
}

// Stops materialises the implicit timestamps of r.
func (r Routine) Stops() []Stop {
	out := make([]Stop, len(r.Points))
	for i, p := range r.Points {
		out[i] = Stop{Loc: p, Tick: r.StartTick + i}
	}
	return out
}

// String implements fmt.Stringer.
func (r Routine) String() string {
	return fmt.Sprintf("routine[t=%d..%d, %d pts]", r.StartTick, r.EndTick(), len(r.Points))
}

// Sample is one supervised training pair for mobility prediction (Def. 3):
// In holds seq_in consecutive locations and Out the seq_out locations that
// immediately follow.
type Sample struct {
	In  []geo.Point
	Out []geo.Point
}

// ExtractSamples slides a window over r and returns every
// (seq_in, seq_out) pair, advancing by stride points between samples.
// A stride of 0 is treated as 1.
func ExtractSamples(r Routine, seqIn, seqOut, stride int) []Sample {
	return ExtractSamplesInto(nil, r, seqIn, seqOut, stride)
}

// ExtractSamplesInto appends the routine's samples to dst and returns it,
// letting per-worker hot loops (adaptation, evaluation) reuse one sample
// slice instead of reallocating it every call. Samples reference r.Points
// directly, exactly like ExtractSamples.
func ExtractSamplesInto(dst []Sample, r Routine, seqIn, seqOut, stride int) []Sample {
	if seqIn <= 0 || seqOut <= 0 || len(r.Points) < seqIn+seqOut {
		return dst
	}
	if stride <= 0 {
		stride = 1
	}
	for i := 0; i+seqIn+seqOut <= len(r.Points); i += stride {
		dst = append(dst, Sample{
			In:  r.Points[i : i+seqIn],
			Out: r.Points[i+seqIn : i+seqIn+seqOut],
		})
	}
	return dst
}

// ExtractSamplesMulti extracts samples from several routines (e.g. one per
// historical day) and concatenates them.
func ExtractSamplesMulti(rs []Routine, seqIn, seqOut, stride int) []Sample {
	var out []Sample
	for _, r := range rs {
		out = append(out, ExtractSamples(r, seqIn, seqOut, stride)...)
	}
	return out
}

// Dataset is the per-worker training set 𝔻 of Def. 3 split into the support
// and query halves that meta-learning adapts and evaluates on.
type Dataset struct {
	Support []Sample
	Query   []Sample
}

// Split partitions samples into a Dataset, placing the given fraction
// (clamped to [0,1]) into Support using an interleaved assignment so both
// halves cover the whole time range rather than disjoint prefixes.
func Split(samples []Sample, supportFrac float64) Dataset {
	if supportFrac < 0 {
		supportFrac = 0
	}
	if supportFrac > 1 {
		supportFrac = 1
	}
	var d Dataset
	if len(samples) == 0 {
		return d
	}
	// Interleave: keep a running quota so the split is deterministic and
	// proportional for any length.
	var taken float64
	for i, s := range samples {
		want := supportFrac * float64(i+1)
		if taken+0.5 < want {
			d.Support = append(d.Support, s)
			taken++
		} else {
			d.Query = append(d.Query, s)
		}
	}
	// Never leave a non-empty dataset with an empty side when both are
	// requested: adaptation and evaluation each need at least one sample.
	if supportFrac > 0 && len(d.Support) == 0 {
		d.Support = append(d.Support, d.Query[0])
		d.Query = d.Query[1:]
	}
	if supportFrac < 1 && len(d.Query) == 0 && len(d.Support) > 1 {
		d.Query = append(d.Query, d.Support[len(d.Support)-1])
		d.Support = d.Support[:len(d.Support)-1]
	}
	return d
}

// Normalizer maps grid coordinates to the zero-centred unit scale the
// neural models train on, and back. Scaling by the grid half-extent keeps
// inputs roughly in [-1, 1], which the LSTM gates need to avoid saturation.
type Normalizer struct {
	CenterX, CenterY float64
	Scale            float64
}

// NewNormalizer builds a Normalizer for grid g.
func NewNormalizer(g geo.Grid) Normalizer {
	b := g.Bounds()
	scale := math.Max(b.Width(), b.Height()) / 2
	if scale == 0 {
		scale = 1
	}
	c := b.Center()
	return Normalizer{CenterX: c.X, CenterY: c.Y, Scale: scale}
}

// Norm maps a grid point to model space.
func (n Normalizer) Norm(p geo.Point) geo.Point {
	return geo.Point{X: (p.X - n.CenterX) / n.Scale, Y: (p.Y - n.CenterY) / n.Scale}
}

// Denorm maps a model-space point back to grid coordinates.
func (n Normalizer) Denorm(p geo.Point) geo.Point {
	return geo.Point{X: p.X*n.Scale + n.CenterX, Y: p.Y*n.Scale + n.CenterY}
}

// NormSample maps both sides of s to model space.
func (n Normalizer) NormSample(s Sample) Sample {
	in := make([]geo.Point, len(s.In))
	for i, p := range s.In {
		in[i] = n.Norm(p)
	}
	out := make([]geo.Point, len(s.Out))
	for i, p := range s.Out {
		out[i] = n.Norm(p)
	}
	return Sample{In: in, Out: out}
}
