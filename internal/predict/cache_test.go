package predict

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/traj"
)

func testWorkerModel(t *testing.T, seed int64) *WorkerModel {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return &WorkerModel{
		WorkerID: int(seed),
		Model:    nn.NewSeq2Seq(InputDims, 2, 8, rng),
		Norm:     traj.Normalizer{CenterX: 50, CenterY: 50, Scale: 50},
		SeqIn:    5,
		SeqOut:   1,
	}
}

func randTrace(rng *rand.Rand, n int) []geo.Point {
	out := make([]geo.Point, n)
	x, y := rng.Float64()*100, rng.Float64()*100
	for i := range out {
		x += rng.NormFloat64()
		y += rng.NormFloat64()
		out[i] = geo.Pt(x, y)
	}
	return out
}

func pointsBitEqual(a, b []geo.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

// TestCacheForecastBitIdentical property-tests the core contract: cached
// forecasts (first miss and subsequent hits) are bit-identical to an
// uncached PredictFuture on an equivalent model, across random traces,
// horizons, and short-context (left-padded) windows.
func TestCacheForecastBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	wm := testWorkerModel(t, 1)
	plain := testWorkerModel(t, 1) // same seed: identical weights
	cache := NewForecastCache(0)

	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(9) // includes traces shorter than SeqIn
		horizon := 1 + rng.Intn(10)
		trace := randTrace(rng, n)

		want := plain.PredictFuture(trace, horizon)
		got := cache.Forecast(wm, trace, horizon)
		if !pointsBitEqual(got, want) {
			t.Fatalf("trial %d: cached forecast differs from uncached", trial)
		}
		// Hit path: same window again must return identical bits.
		again := cache.Forecast(wm, trace, horizon)
		if !pointsBitEqual(again, want) {
			t.Fatalf("trial %d: cache hit differs from first computation", trial)
		}
	}
	hits, misses, _ := cache.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("expected both hits and misses, got hits=%d misses=%d", hits, misses)
	}
}

// TestCacheHitIsMemoized checks that a repeated window is served from the
// cache (hit counter) and returns the same backing slice, and that a
// different window misses.
func TestCacheHitIsMemoized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	wm := testWorkerModel(t, 2)
	cache := NewForecastCache(0)
	trace := randTrace(rng, 8)

	first := cache.Forecast(wm, trace, 6)
	second := cache.Forecast(wm, trace, 6)
	if &first[0] != &second[0] {
		t.Fatal("hit did not return the memoized slice")
	}
	hits, misses, _ := cache.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	// Different horizon is a different key.
	cache.Forecast(wm, trace, 7)
	_, misses, _ = cache.Stats()
	if misses != 2 {
		t.Fatalf("misses=%d after new horizon, want 2", misses)
	}
}

// TestCacheInvalidatedByAdapt checks version-based invalidation: adapting
// the model must prevent reuse of pre-adaptation forecasts.
func TestCacheInvalidatedByAdapt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	wm := testWorkerModel(t, 3)
	cache := NewForecastCache(0)
	trace := randTrace(rng, 10)

	before := append([]geo.Point(nil), cache.Forecast(wm, trace, 5)...)

	day := traj.Routine{Points: randTrace(rng, 40)}
	wm.AdaptOn(day, 2, 0.05)
	if wm.Version() == 0 {
		t.Fatal("AdaptOn did not bump the model version")
	}

	after := cache.Forecast(wm, trace, 5)
	want := wm.PredictFuture(trace, 5)
	if !pointsBitEqual(after, want) {
		t.Fatal("post-adapt cached forecast is not the adapted model's forecast")
	}
	if pointsBitEqual(after, before) {
		t.Fatal("forecast unchanged by adaptation — test not discriminating")
	}
	// The stale entry was replaced, not duplicated.
	if got := cache.Len(); got != 1 {
		t.Fatalf("cache holds %d entries after invalidation, want 1", got)
	}
}

// TestCacheLRUBound checks the per-worker capacity: distinct windows beyond
// the bound evict the least recently used entries.
func TestCacheLRUBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	wm := testWorkerModel(t, 4)
	cache := NewForecastCache(4)

	traces := make([][]geo.Point, 10)
	for i := range traces {
		traces[i] = randTrace(rng, 8)
		cache.Forecast(wm, traces[i], 3)
	}
	if got := cache.Len(); got != 4 {
		t.Fatalf("cache holds %d entries, want capacity 4", got)
	}
	_, _, evictions := cache.Stats()
	if evictions != 6 {
		t.Fatalf("evictions=%d, want 6", evictions)
	}
	// The most recent window is still cached...
	cache.Forecast(wm, traces[9], 3)
	hits, _, _ := cache.Stats()
	if hits != 1 {
		t.Fatalf("hits=%d after re-requesting newest window, want 1", hits)
	}
	// ...and the oldest was evicted (recomputing it is a miss).
	_, missBefore, _ := cache.Stats()
	cache.Forecast(wm, traces[0], 3)
	_, missAfter, _ := cache.Stats()
	if missAfter != missBefore+1 {
		t.Fatal("oldest window unexpectedly still cached")
	}
}

// TestCacheStationaryWorkerHits models the motivating workload: a worker
// idling at a POI reports the same window every tick; every tick after the
// first must hit.
func TestCacheStationaryWorkerHits(t *testing.T) {
	wm := testWorkerModel(t, 5)
	cache := NewForecastCache(0)
	at := geo.Pt(42, 17)
	trace := []geo.Point{at, at, at, at, at}
	for tick := 0; tick < 50; tick++ {
		cache.Forecast(wm, trace, 8)
	}
	hits, misses, _ := cache.Stats()
	if misses != 1 || hits != 49 {
		t.Fatalf("stationary worker: hits=%d misses=%d, want 49/1", hits, misses)
	}
}

// TestCacheNilAndEdgeCases: a nil cache recomputes; empty traces and
// non-positive horizons return nil like PredictFuture.
func TestCacheNilAndEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	wm := testWorkerModel(t, 6)
	trace := randTrace(rng, 6)

	var nilCache *ForecastCache
	want := testWorkerModel(t, 6).PredictFuture(trace, 4)
	if got := nilCache.Forecast(wm, trace, 4); !pointsBitEqual(got, want) {
		t.Fatal("nil cache did not recompute")
	}
	if nilCache.Len() != 0 {
		t.Fatal("nil cache Len != 0")
	}

	cache := NewForecastCache(0)
	if got := cache.Forecast(wm, nil, 4); got != nil {
		t.Fatal("empty trace should forecast nil")
	}
	if got := cache.Forecast(wm, trace, 0); got != nil {
		t.Fatal("zero horizon should forecast nil")
	}
}

// TestCacheInstrument checks the registry mirrors.
func TestCacheInstrument(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	wm := testWorkerModel(t, 7)
	cache := NewForecastCache(0)
	reg := obs.NewRegistry()
	cache.Instrument(reg)

	trace := randTrace(rng, 8)
	cache.Forecast(wm, trace, 5)
	cache.Forecast(wm, trace, 5)

	if v := reg.Counter("predict_cache_hits").Value(); v != 1 {
		t.Fatalf("registry hits=%d, want 1", v)
	}
	if v := reg.Counter("predict_cache_misses").Value(); v != 1 {
		t.Fatalf("registry misses=%d, want 1", v)
	}
}

// TestCacheHitZeroAlloc gates the hit path: after the first computation, a
// stationary lookup performs zero allocations.
func TestCacheHitZeroAlloc(t *testing.T) {
	wm := testWorkerModel(t, 8)
	cache := NewForecastCache(0)
	at := geo.Pt(30, 60)
	trace := []geo.Point{at, at, at, at, at}
	cache.Forecast(wm, trace, 8) // warm: miss + compute
	if n := testing.AllocsPerRun(20, func() {
		cache.Forecast(wm, trace, 8)
	}); n != 0 {
		t.Fatalf("cache hit: %v allocs/op, want 0", n)
	}
}

// scanLRU is the eviction the recency list replaced, kept as the oracle: one
// worker's entries carry a use stamp, and the victim is found by scanning
// them all for the smallest.
type scanLRU struct {
	entries []scanEntry
	seq     uint64
}

type scanEntry struct {
	key     uint64
	version uint64
	used    uint64
}

// access replays one lookup and reports whether it hit and how many entries
// it evicted.
func (o *scanLRU) access(key, version uint64, bound int) (hit bool, evicted int) {
	o.seq++
	for i := range o.entries {
		if e := &o.entries[i]; e.key == key {
			if e.version == version {
				e.used = o.seq
				return true, 0
			}
			// Stale under the older weights: unlinked on sight.
			o.entries = append(o.entries[:i], o.entries[i+1:]...)
			break
		}
	}
	for len(o.entries) >= bound {
		oldest := 0
		for i := range o.entries {
			if o.entries[i].used < o.entries[oldest].used {
				oldest = i
			}
		}
		o.entries = append(o.entries[:oldest], o.entries[oldest+1:]...)
		evicted++
	}
	o.entries = append(o.entries, scanEntry{key: key, version: version, used: o.seq})
	return false, evicted
}

// byRecency returns the resident keys, least recently used first.
func (o *scanLRU) byRecency() []uint64 {
	sorted := append([]scanEntry(nil), o.entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].used < sorted[j].used })
	keys := make([]uint64, len(sorted))
	for i, e := range sorted {
		keys[i] = e.key
	}
	return keys
}

// TestRecencyListEvictsLikeTheScan drives the cache and the scanning oracle
// with one random access sequence — repeats, overflow, and weight updates
// that leave stale entries in the middle of the list — and demands the same
// hit, the same evictions and the same residents in the same recency order
// after every lookup.
func TestRecencyListEvictsLikeTheScan(t *testing.T) {
	const (
		workers  = 3
		bound    = 5
		windows  = 12
		accesses = 3000
	)
	rng := rand.New(rand.NewSource(29))
	cache := NewForecastCache(bound)
	models := make([]*WorkerModel, workers)
	oracles := make([]scanLRU, workers)
	traces := make([][][]geo.Point, workers)
	for w := range models {
		models[w] = testWorkerModel(t, int64(40+w))
		traces[w] = make([][]geo.Point, windows)
		for i := range traces[w] {
			traces[w][i] = randTrace(rng, 6)
		}
	}
	for step := 0; step < accesses; step++ {
		w := rng.Intn(workers)
		wm := models[w]
		if rng.Intn(97) == 0 {
			wm.BumpVersion()
		}
		trace := traces[w][rng.Intn(windows)]
		horizon := 2 + rng.Intn(2)
		key := hashWindow(wm.fillWindow(trace), horizon)

		hits0, misses0, evictions0 := cache.Stats()
		cache.Forecast(wm, trace, horizon)
		hits1, misses1, evictions1 := cache.Stats()
		wantHit, wantEvicted := oracles[w].access(key, wm.Version(), bound)
		if gotHit := hits1 == hits0+1 && misses1 == misses0; gotHit != wantHit || (!wantHit && misses1 != misses0+1) {
			t.Fatalf("step %d: hit %v (hits %d→%d, misses %d→%d), the scan says %v",
				step, gotHit, hits0, hits1, misses0, misses1, wantHit)
		}
		if got := int(evictions1 - evictions0); got != wantEvicted {
			t.Fatalf("step %d: %d evictions, the scan made %d", step, got, wantEvicted)
		}

		wc := cache.worker(wm.WorkerID)
		var got []uint64
		for e := wc.oldest; e != nil; e = e.newer {
			got = append(got, e.key)
		}
		want := oracles[w].byRecency()
		if len(got) != len(want) || len(got) != wc.count {
			t.Fatalf("step %d: %d residents listed, count %d, the scan holds %d", step, len(got), wc.count, len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: recency order differs at %d of %d", step, i, len(got))
			}
		}
		if n := cache.Len(); n > workers*bound {
			t.Fatalf("step %d: %d entries exceed %d workers × %d", step, n, workers, bound)
		}
	}
	if _, _, evictions := cache.Stats(); evictions == 0 {
		t.Fatal("the sequence never overflowed a worker; the comparison is vacuous")
	}
}
