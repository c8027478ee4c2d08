package predict

import (
	"math"
	"sync"

	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/obs"
)

// ForecastCache memoizes PredictFuture rollouts exactly. Real mobility
// traces are heavily repetitive — workers idle at POIs for long stretches,
// so the normalized SeqIn context window (and therefore the whole
// autoregressive rollout, which depends on nothing else) is identical tick
// after tick. The cache keys each worker's forecasts on the exact normalized
// window bits + horizon + model version: a hit returns the memoized points,
// bit-identical to recomputing, for the cost of a hash and a window compare.
//
// Semantics:
//
//   - Exact only: lookup compares every window coordinate by its float64
//     bit pattern (math.Float64bits), so a hit can never change an output
//     anywhere downstream. Near-misses recompute.
//   - Invalidation is by model version: AdaptOn bumps WorkerModel.Version,
//     so entries recorded under older weights can no longer match (a stale
//     entry found under the same window is replaced in place).
//   - Entries are immutable once filled: a hit hands out the same slice
//     every time, and the cache never writes to it again. Callers may
//     retain forecasts across ticks but must not mutate them — the same
//     contract Predicted slices already carry.
//   - Per-worker LRU: each worker holds at most MaxPerWorker entries
//     (default DefaultCacheMaxPerWorker); the least recently used entry is
//     evicted on overflow — the tail of a recency list threaded through the
//     entries, so eviction costs the same at any bound — bounding memory at
//     workers × MaxPerWorker × (SeqIn+horizon) points.
//   - A nil *ForecastCache is valid and simply recomputes, so call sites
//     thread an optional cache without branching.
//
// A ForecastCache is safe for concurrent use across workers (the usual
// platform/server pattern: one goroutine per worker per batch). Calls for
// the same worker must not race — they share that worker's model, which is
// itself not goroutine-safe.
//
// One cache must serve one model set: entries are keyed by WorkerID, so
// sharing a cache between two runs with different models for the same
// worker IDs (and independent version counters) would mix forecasts. The
// cache Train puts on its Result (Result.Forecasts) serves that Result's
// models by construction.
type ForecastCache struct {
	maxPerWorker int

	mu      sync.Mutex
	workers map[int]*workerCache

	hits      obs.Counter
	misses    obs.Counter
	evictions obs.Counter

	// Optional registry mirrors, attached by Instrument.
	regHits, regMisses, regEvictions *obs.Counter
}

// DefaultCacheMaxPerWorker bounds each worker's entry count. Stationary
// workers need exactly one live entry per horizon; slow oscillators a
// handful. 32 keeps even pathological workers cheap.
const DefaultCacheMaxPerWorker = 32

// NewForecastCache returns a cache holding at most maxPerWorker entries per
// worker (<= 0 selects DefaultCacheMaxPerWorker).
func NewForecastCache(maxPerWorker int) *ForecastCache {
	if maxPerWorker <= 0 {
		maxPerWorker = DefaultCacheMaxPerWorker
	}
	return &ForecastCache{
		maxPerWorker: maxPerWorker,
		workers:      make(map[int]*workerCache),
	}
}

// Instrument mirrors the cache's hit/miss/eviction counters into reg as
// predict_cache_{hits,misses,evictions}, resolving the handles once so the
// hot path never takes the registry lock. It is for the owner of a cache; a
// run handed somebody else's cache reports its own share as the difference
// of two Stats readings (platform.Run.Simulate does).
func (c *ForecastCache) Instrument(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	c.regHits = reg.Counter("predict_cache_hits")
	c.regMisses = reg.Counter("predict_cache_misses")
	c.regEvictions = reg.Counter("predict_cache_evictions")
}

// Stats returns the cumulative hit, miss, and eviction counts.
func (c *ForecastCache) Stats() (hits, misses, evictions int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Value(), c.misses.Value(), c.evictions.Value()
}

// Len returns the total number of live entries across all workers.
func (c *ForecastCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, wc := range c.workers {
		wc.mu.Lock()
		n += wc.count
		wc.mu.Unlock()
	}
	return n
}

// Forecast returns wm's horizon-step forecast for the recent trace,
// reusing a memoized rollout when this exact (window, horizon, version) was
// already computed. Bit-identical to wm.PredictFuture. The returned slice
// is cache-owned and immutable: retain freely, never mutate.
func (c *ForecastCache) Forecast(wm *WorkerModel, recent []geo.Point, horizon int) []geo.Point {
	if c == nil {
		return wm.PredictFuture(recent, horizon)
	}
	if horizon <= 0 || len(recent) == 0 {
		return nil
	}
	win := wm.fillWindow(recent)
	key := hashWindow(win, horizon)
	ver := wm.version
	wc := c.worker(wm.WorkerID)

	wc.mu.Lock()
	if e := wc.find(key, win, horizon, ver); e != nil {
		wc.touch(e)
		wc.mu.Unlock()
		c.hits.Inc()
		if c.regHits != nil {
			c.regHits.Inc()
		}
		return e.pred
	}
	wc.mu.Unlock()

	// Miss: copy the window before the rollout shifts it in place, compute
	// into an entry-owned buffer, then publish.
	e := &fcEntry{
		key:     key,
		win:     append([]geo.Point(nil), win...),
		horizon: horizon,
		version: ver,
		pred:    make([]geo.Point, 0, horizon),
	}
	e.pred = wm.rollout(e.pred, horizon)

	wc.mu.Lock()
	evicted := wc.insert(e, c.maxPerWorker)
	wc.mu.Unlock()
	c.misses.Inc()
	if c.regMisses != nil {
		c.regMisses.Inc()
	}
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
		if c.regEvictions != nil {
			c.regEvictions.Add(int64(evicted))
		}
	}
	return e.pred
}

// fcEntry is one memoized rollout. win and pred are entry-owned; pred is
// immutable after publish.
type fcEntry struct {
	key     uint64
	win     []geo.Point
	horizon int
	version uint64
	pred    []geo.Point
	chain   *fcEntry // hash-collision chain
	// Recency list links: newer points towards the most recently used entry.
	newer, older *fcEntry
}

// workerCache is one worker's entry set: an exact-key hash map with
// collision chains, and a recency list through the same entries — a hit
// moves its entry to newest, an overflow pops oldest.
type workerCache struct {
	mu             sync.Mutex
	entries        map[uint64]*fcEntry
	count          int
	newest, oldest *fcEntry
}

func (c *ForecastCache) worker(id int) *workerCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	wc := c.workers[id]
	if wc == nil {
		wc = &workerCache{entries: make(map[uint64]*fcEntry)}
		c.workers[id] = wc
	}
	return wc
}

// find returns the live entry matching the exact window bits, horizon, and
// version, or nil. An entry matching window+horizon under an older version
// is stale — it can never hit again — so it is unlinked on sight.
func (wc *workerCache) find(key uint64, win []geo.Point, horizon int, ver uint64) *fcEntry {
	for e := wc.entries[key]; e != nil; e = e.chain {
		if e.horizon != horizon || !sameWindow(e.win, win) {
			continue
		}
		if e.version != ver {
			wc.remove(e)
			return nil
		}
		return e
	}
	return nil
}

// insert publishes e as the most recently used entry, evicting from the
// least recently used end while the worker is at capacity. Returns the
// number of evictions.
func (wc *workerCache) insert(e *fcEntry, max int) int {
	evicted := 0
	for wc.count >= max {
		wc.remove(wc.oldest)
		evicted++
	}
	e.chain = wc.entries[e.key]
	wc.entries[e.key] = e
	wc.count++
	wc.pushNewest(e)
	return evicted
}

// touch marks e as the most recently used entry.
func (wc *workerCache) touch(e *fcEntry) {
	wc.unlinkRecency(e)
	wc.pushNewest(e)
}

func (wc *workerCache) pushNewest(e *fcEntry) {
	e.newer, e.older = nil, wc.newest
	if wc.newest != nil {
		wc.newest.newer = e
	} else {
		wc.oldest = e
	}
	wc.newest = e
}

func (wc *workerCache) unlinkRecency(e *fcEntry) {
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		wc.newest = e.older
	}
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		wc.oldest = e.newer
	}
}

// remove unlinks e from its collision chain and from the recency list.
func (wc *workerCache) remove(e *fcEntry) {
	switch head := wc.entries[e.key]; {
	case head != e:
		p := head
		for p.chain != e {
			p = p.chain
		}
		p.chain = e.chain
	case e.chain != nil:
		wc.entries[e.key] = e.chain
	default:
		delete(wc.entries, e.key)
	}
	wc.unlinkRecency(e)
	wc.count--
}

// sameWindow compares two windows coordinate by coordinate on exact float64
// bits — stricter than ==: it distinguishes +0 from −0 and matches a NaN
// only against the same NaN payload, so identical input bits are the only
// way to reuse a rollout.
func sameWindow(a, b []geo.Point) bool {
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

// hashWindow folds the window's coordinate bits and the horizon FNV-style.
// Collisions are resolved by sameWindow, so the hash only needs to spread.
func hashWindow(win []geo.Point, horizon int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, p := range win {
		h ^= math.Float64bits(p.X)
		h *= prime
		h ^= math.Float64bits(p.Y)
		h *= prime
	}
	h ^= uint64(horizon)
	h *= prime
	return h
}
