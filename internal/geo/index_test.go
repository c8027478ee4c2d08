package geo

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func randEnvelopes(n int, seed int64) []BBox {
	rng := rand.New(rand.NewSource(seed))
	envs := make([]BBox, n)
	for i := range envs {
		x, y := rng.Float64()*100, rng.Float64()*60
		rx, ry := rng.Float64()*4, rng.Float64()*4
		envs[i] = BBox{Min: Pt(x-rx, y-ry), Max: Pt(x+rx, y+ry)}
	}
	return envs
}

func buildOver(t *testing.T, ix *GridIndex, envs []BBox, parallelism int) {
	t.Helper()
	err := ix.Build(context.Background(), len(envs), parallelism, func(i int) (BBox, bool) {
		return envs[i], true
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
}

// Candidates must contain every id whose envelope contains the query point
// (it may contain more — the caller's exact predicate filters those).
func TestGridIndexSupersetProperty(t *testing.T) {
	envs := randEnvelopes(300, 1)
	var ix GridIndex
	buildOver(t, &ix, envs, 0)
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 1000; q++ {
		p := Pt(rng.Float64()*110-5, rng.Float64()*70-5)
		got := ix.Candidates(p)
		for i, e := range envs {
			if p.X < e.Min.X || p.X > e.Max.X || p.Y < e.Min.Y || p.Y > e.Max.Y {
				continue
			}
			found := false
			for _, id := range got {
				if int(id) == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("query %v: envelope %d (%v) contains the point but is missing from candidates", p, i, e)
			}
		}
	}
}

func TestGridIndexCandidatesAscending(t *testing.T) {
	envs := randEnvelopes(200, 3)
	var ix GridIndex
	buildOver(t, &ix, envs, 0)
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < 200; q++ {
		p := Pt(rng.Float64()*100, rng.Float64()*60)
		got := ix.Candidates(p)
		for k := 1; k < len(got); k++ {
			if got[k-1] >= got[k] {
				t.Fatalf("bucket for %v not strictly ascending: %v", p, got)
			}
		}
	}
}

// The structure — not just query answers — must be identical at every
// parallelism level, because assignment plans iterate buckets in order.
func TestGridIndexParallelismIndependent(t *testing.T) {
	envs := randEnvelopes(500, 5)
	var seq, par8 GridIndex
	buildOver(t, &seq, envs, 1)
	buildOver(t, &par8, envs, 8)
	if seq.cols != par8.cols || seq.rows != par8.rows || seq.cell != par8.cell {
		t.Fatalf("geometry differs: %dx%d cell %v vs %dx%d cell %v",
			seq.cols, seq.rows, seq.cell, par8.cols, par8.rows, par8.cell)
	}
	if !reflect.DeepEqual(seq.starts[:seq.cols*seq.rows+1], par8.starts[:par8.cols*par8.rows+1]) {
		t.Fatal("cell starts differ between parallelism 1 and 8")
	}
	if !reflect.DeepEqual(seq.entries[:seq.starts[seq.cols*seq.rows]], par8.entries[:par8.starts[par8.cols*par8.rows]]) {
		t.Fatal("entries differ between parallelism 1 and 8")
	}
}

func TestGridIndexEmptyAndSkipped(t *testing.T) {
	var ix GridIndex
	if err := ix.Build(context.Background(), 0, 0, func(int) (BBox, bool) { return BBox{}, true }); err != nil {
		t.Fatalf("empty Build: %v", err)
	}
	if got := ix.Candidates(Pt(1, 1)); len(got) != 0 {
		t.Fatalf("empty index returned candidates %v", got)
	}
	// All ids skipped: also a valid empty index.
	if err := ix.Build(context.Background(), 10, 0, func(int) (BBox, bool) { return BBox{}, false }); err != nil {
		t.Fatalf("all-skipped Build: %v", err)
	}
	if got := ix.Candidates(Pt(0, 0)); len(got) != 0 {
		t.Fatalf("all-skipped index returned candidates %v", got)
	}
}

func TestGridIndexNonFiniteEnvelopesSkipped(t *testing.T) {
	inf := math.Inf(1)
	envs := []BBox{
		{Min: Pt(0, 0), Max: Pt(1, 1)},
		{Min: Pt(math.NaN(), 0), Max: Pt(1, 1)},
		{Min: Pt(0, 0), Max: Pt(inf, 1)},
		{Min: Pt(2, 2), Max: Pt(3, 3)},
	}
	// Repeat builds to cover scratch reuse across shapes.
	var ix GridIndex
	for round := 0; round < 3; round++ {
		buildOver(t, &ix, envs, 0)
		for _, id := range ix.Candidates(Pt(0.5, 0.5)) {
			if id == 1 || id == 2 {
				t.Fatalf("non-finite envelope %d leaked into the index", id)
			}
		}
		got := ix.Candidates(Pt(0.5, 0.5))
		if len(got) == 0 || got[0] != 0 {
			t.Fatalf("finite envelope 0 missing from its own cell: %v", got)
		}
	}
}

func TestGridIndexCancelledBuildInvalidates(t *testing.T) {
	envs := randEnvelopes(100, 7)
	var ix GridIndex
	buildOver(t, &ix, envs, 0)
	if len(ix.Candidates(Pt(50, 30))) == 0 && ix.starts[ix.cols*ix.rows] == 0 {
		t.Fatal("expected a populated index before cancellation")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	err := ix.Build(cancelled, len(envs), 0, func(i int) (BBox, bool) { return envs[i], true })
	if err == nil {
		t.Fatal("Build on a cancelled ctx should report the ctx error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected error: %v", err)
	}
	if got := ix.Candidates(Pt(50, 30)); got != nil {
		t.Fatalf("cancelled build left a queryable index: %v", got)
	}
}

// Rebuilding over progressively smaller inputs must not leak stale entries
// from earlier, larger builds.
func TestGridIndexRebuildShrinks(t *testing.T) {
	var ix GridIndex
	for _, n := range []int{400, 50, 17} {
		envs := randEnvelopes(n, int64(n))
		buildOver(t, &ix, envs, 4)
		rng := rand.New(rand.NewSource(int64(n) + 1))
		for q := 0; q < 100; q++ {
			p := Pt(rng.Float64()*100, rng.Float64()*60)
			for _, id := range ix.Candidates(p) {
				if int(id) >= n {
					t.Fatalf("n=%d: stale id %d from a previous build", n, id)
				}
			}
		}
	}
}
