// Package obs is the repo's dependency-free observability core: a
// concurrent-safe registry of counters, gauges, and fixed-bucket histograms;
// lightweight hierarchical phase spans that ride the context.Context already
// threaded through the pipeline (see span.go); and a Prometheus-text-format
// exporter (see expo.go).
//
// Design constraints, in order:
//
//   - Updating a metric handle is lock-free (a single atomic op, zero
//     allocations), so instrumentation can sit on per-batch and per-iteration
//     paths without moving the benchmarks. Handle *lookup* takes the registry
//     lock and allocates the series key — resolve handles once, outside hot
//     loops.
//   - The registry clock is injectable (SetClock), so span timings and the
//     exporter output are deterministic under test.
//   - No dependencies beyond the standard library: obs sits below every other
//     internal package (nn, assign, platform, server all may import it).
//
// The NN kernel hot path (Predict/Grad/Adam.Step) is deliberately left
// uninstrumented: it is gated at 0 allocs/op and sub-microsecond latencies
// where even a time.Now pair is visible. Stage-level timings (meta
// iterations, optimizer steps, assignment batches) capture its cost in
// aggregate instead.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key="value" pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing int64. The zero value is ready to
// use; handles obtained from a Registry are shared and safe for concurrent
// update.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d via a CAS loop, so concurrent Adds never lose updates.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + d
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets (Prometheus
// semantics: bucket le=b counts observations ≤ b; an implicit +Inf bucket
// catches the rest). Observe is a binary search plus two atomic ops.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	n      atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v, len(bounds) = +Inf
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefSecondsBuckets spans the latencies this codebase actually produces:
// sub-microsecond kernel steps up through minute-scale training phases.
var DefSecondsBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60,
}

// DefRequestBuckets resolves the millisecond band where HTTP request
// latencies live — the serving tier (router hops, shard round-trips, load
// generator percentiles) needs finer steps there than DefSecondsBuckets and
// nothing above a few seconds.
var DefRequestBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// metric kinds, also the TYPE strings of the Prometheus exposition.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family groups every series sharing one metric name (they must share a
// kind, and for histograms, bucket bounds).
type family struct {
	name   string
	kind   string
	bounds []float64      // histograms only
	series map[string]any // rendered label block → *Counter / *Gauge / *Histogram
}

// Registry is a concurrent-safe collection of metric families. The zero
// value is not usable; construct with NewRegistry.
type Registry struct {
	clock atomic.Pointer[func() time.Time]

	mu       sync.Mutex
	families map[string]*family

	// phase memoizes the per-path PhaseMetric series: spans close on
	// per-batch paths, where the general lookup (label-key building under
	// mu) would rival the measured work.
	phaseMu sync.RWMutex
	phase   map[string]*Histogram

	memoMu sync.RWMutex
	memo   map[string]any
}

// NewRegistry returns an empty registry running on the real clock.
func NewRegistry() *Registry {
	return &Registry{
		families: map[string]*family{},
		phase:    map[string]*Histogram{},
		memo:     map[string]any{},
	}
}

// Default is the process-wide fallback registry used when no registry is
// attached to the context (see WithRegistry).
var Default = NewRegistry()

// SetClock replaces the registry's time source — spans and timed helpers
// read through it, so tests inject a deterministic clock here.
func (r *Registry) SetClock(now func() time.Time) { r.clock.Store(&now) }

// Now returns the registry's current time (the injected clock when set).
func (r *Registry) Now() time.Time {
	if f := r.clock.Load(); f != nil {
		return (*f)()
	}
	return time.Now()
}

// Counter returns the counter series for name+labels, creating it on first
// use. It panics if name is already registered with a different kind —
// that is a programming error, not a runtime condition.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return getOrCreate(r, name, kindCounter, nil, labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge series for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return getOrCreate(r, name, kindGauge, nil, labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram series for name+labels, creating it on
// first use with the given ascending bucket upper bounds. Later calls for an
// existing series ignore bounds (the family's first registration wins).
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	return getOrCreate(r, name, kindHistogram, bounds, labels, func() any {
		h := &Histogram{bounds: bounds}
		h.counts = make([]atomic.Int64, len(bounds)+1)
		return h
	}).(*Histogram)
}

// Memo returns the registry-scoped value under key, building it on first
// use. It exists for call sites that receive the registry once per call
// (e.g. per assignment batch) but want to resolve a bundle of labelled
// handles only once per registry: a memo hit is a read-lock and a map
// lookup, no allocation. Concurrent first calls may run build more than
// once; one result wins and handle construction is idempotent, so that is
// benign.
func (r *Registry) Memo(key string, build func(*Registry) any) any {
	r.memoMu.RLock()
	v, ok := r.memo[key]
	r.memoMu.RUnlock()
	if ok {
		return v
	}
	built := build(r)
	r.memoMu.Lock()
	if v, ok = r.memo[key]; !ok {
		r.memo[key] = built
		v = built
	}
	r.memoMu.Unlock()
	return v
}

// phaseHistogram is the span-close fast path: Histogram(PhaseMetric, ...)
// for the given path, memoized per path.
func (r *Registry) phaseHistogram(path string) *Histogram {
	r.phaseMu.RLock()
	h := r.phase[path]
	r.phaseMu.RUnlock()
	if h != nil {
		return h
	}
	h = r.Histogram(PhaseMetric, DefSecondsBuckets, L("phase", path))
	r.phaseMu.Lock()
	r.phase[path] = h
	r.phaseMu.Unlock()
	return h
}

func getOrCreate(r *Registry, name, kind string, bounds []float64, labels []Label, make_ func() any) any {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		if kind == kindHistogram && !sort.Float64sAreSorted(bounds) {
			panic(fmt.Sprintf("obs: histogram %q bucket bounds not ascending", name))
		}
		f = &family{
			name: name, kind: kind, bounds: bounds,
			series: map[string]any{},
		}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	m, ok := f.series[key]
	if !ok {
		if kind == kindHistogram {
			// All series of one histogram family share the family's bounds so
			// the exposition stays well-formed.
			h := &Histogram{bounds: f.bounds}
			h.counts = make([]atomic.Int64, len(f.bounds)+1)
			m = h
		} else {
			m = make_()
		}
		f.series[key] = m
	}
	return m
}

// labelKey renders labels sorted by key into the canonical
// {k1="v1",k2="v2"} block ("" for no labels), which doubles as the series
// map key.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
