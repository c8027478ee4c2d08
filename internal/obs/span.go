package obs

import (
	"context"
	"time"
)

// PhaseMetric is the histogram family every finished span records into; the
// span's hierarchical path becomes the series' phase label.
const PhaseMetric = "tamp_phase_seconds"

type registryKey struct{}
type spanKey struct{}

// WithRegistry attaches a registry to the context. Every instrumentation
// site in the pipeline resolves its registry through RegistryFrom, so one
// WithRegistry at the top of a run routes all of its metrics — counters,
// histograms, and spans — to that registry.
func WithRegistry(ctx context.Context, r *Registry) context.Context {
	return context.WithValue(ctx, registryKey{}, r)
}

// RegistryFrom returns the registry attached to ctx, or Default when none
// (or a nil registry) was attached. It never returns nil.
func RegistryFrom(ctx context.Context) *Registry {
	if r, ok := ctx.Value(registryKey{}).(*Registry); ok && r != nil {
		return r
	}
	return Default
}

// span is one in-flight phase measurement. Spans nest through the context:
// a child's path is parent-path + "/" + name, so the recorded series form a
// wall-time hierarchy ("predict.train/meta.train", "sim/assign.ppi", ...).
type span struct {
	path  string
	start time.Time
	reg   *Registry
}

// Span starts a phase measurement named name under ctx's current span (if
// any) and returns the child context plus an end function. Calling end
// records the elapsed wall time into the PhaseMetric histogram of ctx's
// registry, labelled with the span's hierarchical path. end is safe to call
// exactly once, typically via defer:
//
//	ctx, end := obs.Span(ctx, "meta.train")
//	defer end()
//
// Span names must come from a bounded set (phase names, not per-item IDs) —
// each distinct path creates one histogram series.
func Span(ctx context.Context, name string) (context.Context, func()) {
	reg := RegistryFrom(ctx)
	path := name
	if parent, ok := ctx.Value(spanKey{}).(*span); ok {
		path = parent.path + "/" + name
	}
	s := &span{path: path, start: reg.Now(), reg: reg}
	return context.WithValue(ctx, spanKey{}, s), func() {
		d := reg.Now().Sub(s.start).Seconds()
		reg.phaseHistogram(s.path).Observe(d)
	}
}

// Time measures one function call as a leaf span (the returned context of
// Span is discarded — fn cannot start children). Convenience for phases
// that are a single call.
func Time(ctx context.Context, name string, fn func()) {
	_, end := Span(ctx, name)
	fn()
	end()
}
