package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/nn"
)

func pois(ty geo.POIType, pts ...float64) []geo.POI {
	var out []geo.POI
	for i := 0; i+1 < len(pts); i += 2 {
		out = append(out, geo.POI{Loc: geo.Pt(pts[i], pts[i+1]), Type: ty})
	}
	return out
}

func TestSpatialSimIdentical(t *testing.T) {
	a := pois(geo.POIRetail, 5, 5, 6, 6)
	if got := SpatialSim(a, a); got < 0.9 {
		t.Errorf("identical POIs similarity = %v, want near 1", got)
	}
}

func TestSpatialSimDistanceDecay(t *testing.T) {
	a := pois(geo.POIRetail, 0, 0)
	near := pois(geo.POIRetail, 1, 0)
	far := pois(geo.POIRetail, 80, 0)
	sn, sf := SpatialSim(a, near), SpatialSim(a, far)
	if sn <= sf {
		t.Errorf("near sim %v should exceed far sim %v", sn, sf)
	}
	if sf > 0.01 {
		t.Errorf("far sim = %v, want near 0", sf)
	}
}

func TestSpatialSimTypeDiscount(t *testing.T) {
	a := pois(geo.POIRetail, 10, 10)
	same := pois(geo.POIRetail, 10, 10)
	diff := pois(geo.POIBusiness, 10, 10)
	if SpatialSim(a, same) <= SpatialSim(a, diff) {
		t.Error("same-type POIs should be more similar than cross-type")
	}
}

func TestSpatialSimEmpty(t *testing.T) {
	if got := SpatialSim(nil, pois(geo.POIRetail, 1, 1)); got != 0 {
		t.Errorf("empty side sim = %v", got)
	}
}

func TestSpatialSimSymmetricBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		var a, b []geo.POI
		for i := 0; i < rng.Intn(5)+1; i++ {
			a = append(a, geo.POI{Loc: geo.Pt(rng.Float64()*100, rng.Float64()*50), Type: geo.POIType(rng.Intn(int(geo.NumPOITypes)))})
		}
		for i := 0; i < rng.Intn(5)+1; i++ {
			b = append(b, geo.POI{Loc: geo.Pt(rng.Float64()*100, rng.Float64()*50), Type: geo.POIType(rng.Intn(int(geo.NumPOITypes)))})
		}
		s1, s2 := SpatialSim(a, b), SpatialSim(b, a)
		if math.Abs(s1-s2) > 1e-12 {
			t.Fatalf("asymmetric: %v vs %v", s1, s2)
		}
		if s1 < 0 || s1 > 1 {
			t.Fatalf("out of range: %v", s1)
		}
	}
}

func path(vs ...nn.Vector) []nn.Vector { return vs }

func TestLearningPathSim(t *testing.T) {
	a := path(nn.Vector{1, 0}, nn.Vector{0, 1})
	if got := LearningPathSim(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical path sim = %v", got)
	}
	opp := path(nn.Vector{-1, 0}, nn.Vector{0, -1})
	if got := LearningPathSim(a, opp); math.Abs(got) > 1e-12 {
		t.Errorf("opposite path sim = %v, want 0", got)
	}
	orth := path(nn.Vector{0, 1}, nn.Vector{1, 0})
	if got := LearningPathSim(a, orth); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("orthogonal path sim = %v, want 0.5", got)
	}
}

func TestLearningPathSimUnequalLengths(t *testing.T) {
	a := path(nn.Vector{1, 0}, nn.Vector{0, 1}, nn.Vector{1, 1})
	b := path(nn.Vector{1, 0})
	if got := LearningPathSim(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("prefix sim = %v, want 1", got)
	}
	if got := LearningPathSim(a, nil); got != 0 {
		t.Errorf("empty path sim = %v", got)
	}
}

func TestWasserstein1DBasics(t *testing.T) {
	if got := Wasserstein1D([]float64{0, 1}, []float64{0, 1}); math.Abs(got) > 1e-12 {
		t.Errorf("identical dists W = %v", got)
	}
	// Point masses at 0 and at 3: distance is the shift.
	if got := Wasserstein1D([]float64{0}, []float64{3}); math.Abs(got-3) > 1e-12 {
		t.Errorf("point mass W = %v, want 3", got)
	}
	// Shifting a whole distribution by c moves W by exactly c.
	xs := []float64{1, 2, 5, 9}
	ys := []float64{4, 5, 8, 12}
	if got := Wasserstein1D(xs, ys); math.Abs(got-3) > 1e-12 {
		t.Errorf("shifted W = %v, want 3", got)
	}
}

func TestWasserstein1DUnequalSizes(t *testing.T) {
	// {0,0} vs {0} are the same distribution.
	if got := Wasserstein1D([]float64{0, 0}, []float64{0}); math.Abs(got) > 1e-12 {
		t.Errorf("duplicated mass W = %v", got)
	}
	// Uniform{0,1} vs point at 0: W = mean |x| = 0.5.
	if got := Wasserstein1D([]float64{0, 1}, []float64{0}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("W = %v, want 0.5", got)
	}
}

func TestWasserstein1DMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sample := func() []float64 {
		n := rng.Intn(6) + 1
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.NormFloat64() * 10
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		a, b, c := sample(), sample(), sample()
		dab, dba := Wasserstein1D(a, b), Wasserstein1D(b, a)
		if math.Abs(dab-dba) > 1e-9 {
			t.Fatalf("asymmetric: %v vs %v", dab, dba)
		}
		if dab < 0 {
			t.Fatalf("negative distance %v", dab)
		}
		if Wasserstein1D(a, a) > 1e-9 {
			t.Fatal("d(a,a) != 0")
		}
		dac, dbc := Wasserstein1D(a, c), Wasserstein1D(b, c)
		if dab > dac+dbc+1e-9 {
			t.Fatalf("triangle inequality violated: %v > %v + %v", dab, dac, dbc)
		}
	}
}

func TestSlicedWassersteinTranslation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var a, b []geo.Point
	for i := 0; i < 40; i++ {
		p := geo.Pt(rng.Float64()*10, rng.Float64()*10)
		a = append(a, p)
		b = append(b, p.Add(geo.Pt(5, 0)))
	}
	got := SlicedWasserstein(a, b, 16)
	// Projections of a +5 x-shift give |5 cosθ| averaged over θ ∈ [0,π):
	// (2/π)·5 ≈ 3.183.
	want := 2 / math.Pi * 5
	if math.Abs(got-want) > 0.2 {
		t.Errorf("sliced W = %v, want about %v", got, want)
	}
}

// SlicedWasserstein sorts its own projection buffers in place; the result
// must be the mean of the copying Wasserstein1D over the same projections,
// bit for bit, at two allocations a call however many projections it takes.
func TestSlicedWassersteinMatchesWasserstein1D(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := make([]geo.Point, 37)
	b := make([]geo.Point, 52)
	for i := range a {
		a[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	for i := range b {
		b[i] = geo.Pt(rng.NormFloat64()*20+50, rng.NormFloat64()*20+50)
	}
	const nProj = 8
	var want float64
	for k := 0; k < nProj; k++ {
		theta := math.Pi * float64(k) / nProj
		c, s := math.Cos(theta), math.Sin(theta)
		pa := make([]float64, len(a))
		pb := make([]float64, len(b))
		for i, p := range a {
			pa[i] = c*p.X + s*p.Y
		}
		for i, p := range b {
			pb[i] = c*p.X + s*p.Y
		}
		want += Wasserstein1D(pa, pb)
	}
	want /= nProj
	if got := SlicedWasserstein(a, b, nProj); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("sliced W = %v, mean of Wasserstein1D over the projections = %v", got, want)
	}
	if n := testing.AllocsPerRun(20, func() { SlicedWasserstein(a, b, nProj) }); n > 2 {
		t.Errorf("SlicedWasserstein allocates %v times a call, want its 2 projection buffers", n)
	}
}

func TestSlicedWassersteinIdentity(t *testing.T) {
	a := []geo.Point{geo.Pt(1, 2), geo.Pt(3, 4)}
	if got := SlicedWasserstein(a, a, 8); got > 1e-9 {
		t.Errorf("self distance = %v", got)
	}
	if got := SlicedWasserstein(nil, a, 8); got != 0 {
		t.Errorf("empty distance = %v", got)
	}
	if got := SlicedWasserstein(a, a, 0); got > 1e-9 {
		t.Errorf("default projections self distance = %v", got)
	}
}

func TestDistributionSim(t *testing.T) {
	a := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 1)}
	if got := DistributionSim(a, a); math.Abs(got-1) > 1e-9 {
		t.Errorf("identical distribution sim = %v", got)
	}
	far := []geo.Point{geo.Pt(90, 45), geo.Pt(91, 44)}
	if got := DistributionSim(a, far); got > 0.2 {
		t.Errorf("far distribution sim = %v, want small", got)
	}
	if got := DistributionSim(nil, a); got != 0 {
		t.Errorf("empty distribution sim = %v", got)
	}
}

func TestSimilarityDispatch(t *testing.T) {
	a := &Features{
		POIs:   pois(geo.POIRetail, 1, 1),
		Path:   path(nn.Vector{1, 0}),
		Points: []geo.Point{geo.Pt(1, 1)},
	}
	for _, m := range []Metric{Distribution, Spatial, LearningPath} {
		got := Similarity(m, a, a)
		if got < 0.5 {
			t.Errorf("%v self-similarity = %v", m, got)
		}
	}
	if got := Similarity(Metric(99), a, a); got != 0 {
		t.Errorf("unknown metric sim = %v", got)
	}
}

func TestMetricString(t *testing.T) {
	if Distribution.String() != "Sim_d" || Spatial.String() != "Sim_s" || LearningPath.String() != "Sim_l" {
		t.Error("metric names wrong")
	}
	if Metric(9).String() != "Sim(?)" {
		t.Error("unknown metric name wrong")
	}
}

func TestMatrixSymmetric(t *testing.T) {
	m := NewMatrix(4, func(i, j int) float64 { return float64(i + j) })
	for i := 0; i < 4; i++ {
		if m.At(i, i) != 1 {
			t.Errorf("diagonal At(%d,%d) = %v", i, i, m.At(i, i))
		}
		for j := 0; j < 4; j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Errorf("asymmetric at %d,%d", i, j)
			}
		}
	}
	if m.At(1, 2) != 3 {
		t.Errorf("At(1,2) = %v", m.At(1, 2))
	}
}

func TestQuality(t *testing.T) {
	// Three items: 0 and 1 similar (0.8), 2 dissimilar to both (0.2).
	s := [][]float64{
		{1, 0.8, 0.2},
		{0.8, 1, 0.2},
		{0.2, 0.2, 1},
	}
	m := NewMatrix(3, func(i, j int) float64 { return s[i][j] })
	const gamma = 0.3
	if got := Quality(m, nil, gamma); got != 0 {
		t.Errorf("empty quality = %v", got)
	}
	if got := Quality(m, []int{1}, gamma); got != gamma {
		t.Errorf("singleton quality = %v", got)
	}
	if got := Quality(m, []int{0, 1}, gamma); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("pair quality = %v", got)
	}
	q3 := Quality(m, []int{0, 1, 2}, gamma)
	want := (0.8 + 0.2 + 0.2) * 2 / 6
	if math.Abs(q3-want) > 1e-12 {
		t.Errorf("triple quality = %v, want %v", q3, want)
	}
}

func TestUtilityMarginal(t *testing.T) {
	s := [][]float64{
		{1, 0.9, 0.1},
		{0.9, 1, 0.1},
		{0.1, 0.1, 1},
	}
	m := NewMatrix(3, func(i, j int) float64 { return s[i][j] })
	const gamma = 0.3
	// Item 2 joining {0,1} drags quality down: utility should be negative.
	u := Utility(m, []int{0, 1, 2}, 2, gamma)
	if u >= 0 {
		t.Errorf("bad join utility = %v, want negative", u)
	}
	// Item 1 joining {0}: quality goes γ→0.9.
	u = Utility(m, []int{0, 1}, 1, gamma)
	if math.Abs(u-(0.9-gamma)) > 1e-12 {
		t.Errorf("good join utility = %v", u)
	}
}

func TestUtilityPotentialProperty(t *testing.T) {
	// Exactness of the potential game (Thm. 1) relies on
	// u(Γ,G) = Q(G) − Q(G∖Γ) for every configuration; verify on random
	// matrices that the utility equals that quality difference.
	rng := rand.New(rand.NewSource(12))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(5) + 2
		m := NewMatrix(n, func(i, j int) float64 { return r.Float64() })
		size := r.Intn(n) + 1
		members := r.Perm(n)[:size]
		item := members[r.Intn(size)]
		got := Utility(m, members, item, 0.25)
		var rest []int
		for _, x := range members {
			if x != item {
				rest = append(rest, x)
			}
		}
		want := Quality(m, members, 0.25) - Quality(m, rest, 0.25)
		return math.Abs(got-want) < 1e-12
	}
	for i := 0; i < 100; i++ {
		if !f(rng.Int63()) {
			t.Fatal("utility != marginal quality")
		}
	}
}

func TestMeanSimTo(t *testing.T) {
	m := NewMatrix(3, func(i, j int) float64 { return 0.5 })
	if got := MeanSimTo(m, 0, []int{1, 2}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("MeanSimTo = %v", got)
	}
	if got := MeanSimTo(m, 0, nil); got != 0 {
		t.Errorf("empty MeanSimTo = %v", got)
	}
}

func TestQualityBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(6) + 1
		m := NewMatrix(n, func(i, j int) float64 { return r.Float64() })
		members := r.Perm(n)[:r.Intn(n)+1]
		q := Quality(m, members, 0.2)
		return q >= 0 && q <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWasserstein1DHomogeneity(t *testing.T) {
	// W(aX, aY) = |a|·W(X, Y).
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		n1, n2 := rng.Intn(6)+1, rng.Intn(6)+1
		xs := make([]float64, n1)
		ys := make([]float64, n2)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 5
		}
		for i := range ys {
			ys[i] = rng.NormFloat64() * 5
		}
		a := rng.NormFloat64() * 3
		sx := make([]float64, n1)
		sy := make([]float64, n2)
		for i := range xs {
			sx[i] = xs[i] * a
		}
		for i := range ys {
			sy[i] = ys[i] * a
		}
		w1 := Wasserstein1D(xs, ys)
		w2 := Wasserstein1D(sx, sy)
		if math.Abs(w2-math.Abs(a)*w1) > 1e-9*(1+w2) {
			t.Fatalf("homogeneity violated: a=%v W=%v scaled=%v", a, w1, w2)
		}
	}
}

func TestSlicedWassersteinRotationInvariance(t *testing.T) {
	// With many projections, rotating both point sets by the same angle
	// leaves the sliced distance (approximately) unchanged.
	rng := rand.New(rand.NewSource(19))
	var a, b []geo.Point
	for i := 0; i < 30; i++ {
		a = append(a, geo.Pt(rng.NormFloat64()*4, rng.NormFloat64()*4))
		b = append(b, geo.Pt(rng.NormFloat64()*4+3, rng.NormFloat64()*4))
	}
	rot := func(ps []geo.Point, th float64) []geo.Point {
		c, s := math.Cos(th), math.Sin(th)
		out := make([]geo.Point, len(ps))
		for i, p := range ps {
			out[i] = geo.Pt(c*p.X-s*p.Y, s*p.X+c*p.Y)
		}
		return out
	}
	w1 := SlicedWasserstein(a, b, 64)
	w2 := SlicedWasserstein(rot(a, 0.7), rot(b, 0.7), 64)
	if math.Abs(w1-w2) > 0.05*(w1+1e-9) {
		t.Errorf("rotation changed sliced W: %v vs %v", w1, w2)
	}
}
