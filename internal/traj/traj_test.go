package traj

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/spatialcrowd/tamp/internal/geo"
)

func line(start int, pts ...float64) Routine {
	r := Routine{StartTick: start}
	for i := 0; i+1 < len(pts); i += 2 {
		r.Points = append(r.Points, geo.Pt(pts[i], pts[i+1]))
	}
	return r
}

func TestRoutineAtClamping(t *testing.T) {
	r := line(10, 0, 0, 1, 0, 2, 0)
	if got := r.At(9); got != geo.Pt(0, 0) {
		t.Errorf("At before start = %v", got)
	}
	if got := r.At(10); got != geo.Pt(0, 0) {
		t.Errorf("At(10) = %v", got)
	}
	if got := r.At(11); got != geo.Pt(1, 0) {
		t.Errorf("At(11) = %v", got)
	}
	if got := r.At(12); got != geo.Pt(2, 0) {
		t.Errorf("At(12) = %v", got)
	}
	if got := r.At(100); got != geo.Pt(2, 0) {
		t.Errorf("At past end = %v", got)
	}
}

func TestRoutineAtEmpty(t *testing.T) {
	var r Routine
	if got := r.At(5); got != (geo.Point{}) {
		t.Errorf("empty At = %v", got)
	}
	if r.Len() != 0 || r.EndTick() != -1 {
		t.Errorf("empty Len/EndTick = %d/%d", r.Len(), r.EndTick())
	}
}

func TestRoutineSlice(t *testing.T) {
	r := line(5, 0, 0, 1, 1, 2, 2, 3, 3)
	s := r.Slice(6, 8)
	if s.StartTick != 6 || s.Len() != 2 {
		t.Fatalf("Slice = %v", s)
	}
	if s.Points[0] != geo.Pt(1, 1) || s.Points[1] != geo.Pt(2, 2) {
		t.Errorf("Slice points = %v", s.Points)
	}
	if got := r.Slice(0, 100); got.Len() != 4 {
		t.Errorf("over-wide slice len = %d", got.Len())
	}
	if got := r.Slice(100, 200); got.Len() != 0 {
		t.Errorf("out-of-range slice len = %d", got.Len())
	}
	if got := r.Slice(8, 6); got.Len() != 0 {
		t.Errorf("inverted slice len = %d", got.Len())
	}
}

func TestRoutineLength(t *testing.T) {
	r := line(0, 0, 0, 3, 4, 3, 4)
	if got := r.Length(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Length = %v, want 5", got)
	}
	if got := (Routine{}).Length(); got != 0 {
		t.Errorf("empty Length = %v", got)
	}
}

func TestRoutineStops(t *testing.T) {
	r := line(7, 1, 2, 3, 4)
	stops := r.Stops()
	if len(stops) != 2 {
		t.Fatalf("Stops len = %d", len(stops))
	}
	if stops[0] != (Stop{Loc: geo.Pt(1, 2), Tick: 7}) {
		t.Errorf("stop 0 = %v", stops[0])
	}
	if stops[1] != (Stop{Loc: geo.Pt(3, 4), Tick: 8}) {
		t.Errorf("stop 1 = %v", stops[1])
	}
}

func TestExtractSamples(t *testing.T) {
	r := line(0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0)
	got := ExtractSamples(r, 2, 1, 1)
	if len(got) != 3 {
		t.Fatalf("samples = %d, want 3", len(got))
	}
	s := got[1]
	if s.In[0] != geo.Pt(1, 0) || s.In[1] != geo.Pt(2, 0) || s.Out[0] != geo.Pt(3, 0) {
		t.Errorf("sample 1 = %+v", s)
	}
}

func TestExtractSamplesStride(t *testing.T) {
	r := line(0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0)
	if got := ExtractSamples(r, 1, 1, 2); len(got) != 3 {
		t.Errorf("stride-2 samples = %d, want 3", len(got))
	}
	// Stride 0 behaves as stride 1.
	if a, b := ExtractSamples(r, 1, 1, 0), ExtractSamples(r, 1, 1, 1); len(a) != len(b) {
		t.Errorf("stride-0 samples = %d, stride-1 = %d", len(a), len(b))
	}
}

func TestExtractSamplesDegenerate(t *testing.T) {
	r := line(0, 0, 0, 1, 0)
	if got := ExtractSamples(r, 2, 1, 1); got != nil {
		t.Errorf("too-short routine produced %d samples", len(got))
	}
	if got := ExtractSamples(r, 0, 1, 1); got != nil {
		t.Errorf("seqIn=0 produced samples")
	}
	if got := ExtractSamples(r, 1, 0, 1); got != nil {
		t.Errorf("seqOut=0 produced samples")
	}
}

func TestExtractSamplesMulti(t *testing.T) {
	rs := []Routine{
		line(0, 0, 0, 1, 0, 2, 0),
		line(0, 5, 5, 6, 6, 7, 7),
	}
	got := ExtractSamplesMulti(rs, 1, 1, 1)
	if len(got) != 4 {
		t.Errorf("multi samples = %d, want 4", len(got))
	}
}

func TestSplitProportions(t *testing.T) {
	samples := make([]Sample, 100)
	d := Split(samples, 0.7)
	if len(d.Support) != 70 || len(d.Query) != 30 {
		t.Errorf("split = %d/%d, want 70/30", len(d.Support), len(d.Query))
	}
	if n := len(d.Support) + len(d.Query); n != 100 {
		t.Errorf("size = %d", n)
	}
}

func TestSplitNeverEmptySides(t *testing.T) {
	f := func(n uint8, frac float64) bool {
		if math.IsNaN(frac) {
			return true
		}
		samples := make([]Sample, int(n%50)+2)
		d := Split(samples, frac)
		if len(d.Support)+len(d.Query) != len(samples) {
			return false
		}
		ef := frac
		if ef < 0 {
			ef = 0
		}
		if ef > 1 {
			ef = 1
		}
		if ef > 0 && len(d.Support) == 0 {
			return false
		}
		if ef < 1 && len(d.Query) == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitEmpty(t *testing.T) {
	d := Split(nil, 0.5)
	if len(d.Support)+len(d.Query) != 0 {
		t.Errorf("empty split = %d/%d", len(d.Support), len(d.Query))
	}
}

func TestNormalizerRoundTrip(t *testing.T) {
	n := NewNormalizer(geo.DefaultGrid)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		p := geo.Pt(rng.Float64()*100, rng.Float64()*50)
		q := n.Denorm(n.Norm(p))
		if p.Dist(q) > 1e-9 {
			t.Fatalf("round trip moved %v to %v", p, q)
		}
	}
}

func TestNormalizerRange(t *testing.T) {
	n := NewNormalizer(geo.DefaultGrid)
	corners := []geo.Point{geo.Pt(0, 0), geo.Pt(100, 50), geo.Pt(0, 50), geo.Pt(100, 0)}
	for _, c := range corners {
		q := n.Norm(c)
		if math.Abs(q.X) > 1.0001 || math.Abs(q.Y) > 1.0001 {
			t.Errorf("Norm(%v) = %v outside [-1,1]", c, q)
		}
	}
}

func TestNormSample(t *testing.T) {
	n := NewNormalizer(geo.DefaultGrid)
	s := Sample{In: []geo.Point{geo.Pt(50, 25)}, Out: []geo.Point{geo.Pt(100, 50)}}
	ns := n.NormSample(s)
	if ns.In[0].Dist(geo.Pt(0, 0)) > 1e-12 {
		t.Errorf("centre should map to origin, got %v", ns.In[0])
	}
	if ns.Out[0].Dist(geo.Pt(1, 0.5)) > 1e-12 {
		t.Errorf("corner mapped to %v", ns.Out[0])
	}
	// Original untouched.
	if s.In[0] != geo.Pt(50, 25) {
		t.Error("NormSample mutated input")
	}
}
