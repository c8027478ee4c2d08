package main

import (
	"strings"

	"github.com/spatialcrowd/tamp/internal/stats"
)

// metricDef is one line of BENCHMARK.json: bound is the share of the parent's
// median by which an end-to-end metric may worsen (per-layer metrics have
// none).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system would see, the same ten on
// every workload. BENCHMARK.json lists them with the same units, directions
// and bounds (a test holds the two together).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ticks_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_tick", "ms", "lower", 0.25},
	{"allocs_per_tick", "count", "lower", 0.10},
	{"alloc_kb_per_tick", "KB", "lower", 0.10},
	{"rss_peak_mb", "MB", "lower", 0.08},
	{"completion_rate", "ratio", "higher", 0.10},
	{"accept_rate", "ratio", "higher", 0.15},
	{"detour_km", "km", "lower", 0.25},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// roundValues extracts one number per round.
func roundValues(rounds []round, f func(r *round) float64) []float64 {
	out := make([]float64, len(rounds))
	for i := range rounds {
		out[i] = f(&rounds[i])
	}
	return out
}

// lapLevels reduces the rounds of a run to one number per lap index: the
// median over rounds of f of that lap. The k-th lap of every round does the
// same work, and each was corrected by the yardstick readings that touch it,
// so whatever a busy neighbour added to one round's lap is outvoted by the
// other rounds' — lap by lap, not round by round. A lap f has nothing to say
// about (ok false) is left out; an index with no lap left has no level.
func lapLevels(rs []round, f func(l *lap) (v float64, ok bool)) []float64 {
	var levels []float64
	for k := range rs[0].laps {
		var xs []float64
		for r := range rs {
			if k < len(rs[r].laps) {
				if v, ok := f(&rs[r].laps[k]); ok {
					xs = append(xs, v)
				}
			}
		}
		if len(xs) > 0 {
			levels = append(levels, stats.Median(xs))
		}
	}
	return levels
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

func correctedWall(l *lap) (float64, bool) { return l.corrected(), true }
func correctedCPU(l *lap) (float64, bool)  { return l.cpuS * l.host, true }
func correctedOp(l *lap) (float64, bool)   { return l.correctedOp(), len(l.opsMs) > 0 }

// roundTotal is the round's own total of f over its laps.
func roundTotal(r *round, f func(l *lap) (float64, bool)) (s float64) {
	for i := range r.laps {
		v, _ := f(&r.laps[i])
		s += v
	}
	return s
}

// endToEndValues reduces a run to its end-to-end metrics. Round time and CPU
// time are the sums of their lap levels; the op latency is the median over
// lap indices of the level of the laps' own median op; set-up is the median
// of the corrected set-ups; the allocation metrics are medians over rounds;
// the quality metrics are those of the first round (every round's are
// identical, or the run has failed). spreads holds the round IQR/median of
// the timing metrics: how far the rounds' own corrected totals scatter.
func endToEndValues(m *meter, setups []float64) (vals map[string]float64, spreads map[string]float64) {
	rs := m.rounds
	ticks := float64(rs[0].ticks)
	q := rs[0].quality
	vals = map[string]float64{
		"setup_s":           stats.Median(setups),
		"ticks_per_s":       ticks / sum(lapLevels(rs, correctedWall)),
		"op_p50_ms":         stats.Median(lapLevels(rs, correctedOp)),
		"cpu_ms_per_tick":   sum(lapLevels(rs, correctedCPU)) * 1e3 / ticks,
		"allocs_per_tick":   stats.Median(roundValues(rs, func(r *round) float64 { return float64(r.mallocs) })) / ticks,
		"alloc_kb_per_tick": stats.Median(roundValues(rs, func(r *round) float64 { return float64(r.allocBytes) })) / 1024 / ticks,
		"rss_peak_mb":       peakRSSMB(),
		"completion_rate":   q.completionRate(),
		"accept_rate":       q.acceptRate(),
		"detour_km":         q.detourKM(),
	}
	spreads = map[string]float64{
		"ticks_per_s":     spread(roundValues(rs, func(r *round) float64 { return roundTotal(r, correctedWall) })),
		"cpu_ms_per_tick": spread(roundValues(rs, func(r *round) float64 { return roundTotal(r, correctedCPU) })),
		"op_p50_ms": spread(roundValues(rs, func(r *round) float64 {
			return stats.Median(lapLevels([]round{*r}, correctedOp))
		})),
	}
	return vals, spreads
}

// layerMetric is one per-layer metric: how it is read off a traced run.
type layerMetric struct {
	metricDef
	from func(l *layerView) float64
}

// layerView is what the per-layer metrics are computed from: the tracer's
// pooled samples and counts, the traced rounds of the meter, and a few
// numbers the run measured on the side.
type layerView struct {
	t      *tracer
	m      *meter
	traced []round // armed rounds
	plain  []round // unarmed rounds of the same run
}

// p50 is the median of the named span's durations, in µs.
func (l *layerView) p50(name string) float64 { return stats.Median(l.t.samples[name]) }

func (l *layerView) count(name string) float64 { return l.t.counts[name] }

func (l *layerView) ticks() float64 {
	n := 0
	for i := range l.traced {
		n += l.traced[i].ticks
	}
	return float64(n)
}

func (l *layerView) ops() float64 {
	n := 0
	for i := range l.traced {
		for _, lp := range l.traced[i].laps {
			n += len(lp.opsMs)
		}
	}
	return float64(n)
}

// pooled gathers the raw op (or read) latencies of every round of the run.
func (l *layerView) pooled(reads bool) []float64 {
	var all []float64
	for _, rs := range [][]round{l.traced, l.plain} {
		for i := range rs {
			if reads {
				all = append(all, rs[i].readsMs...)
				continue
			}
			for _, lp := range rs[i].laps {
				all = append(all, lp.opsMs...)
			}
		}
	}
	return all
}

// sampled reports the median of what was filed under name, in the unit it
// was filed in: µs for a span, whatever the workload chose for a sample.
func sampled(name string) func(*layerView) float64 {
	return func(l *layerView) float64 { return l.p50(name) }
}

func ms(name string) func(*layerView) float64 {
	return func(l *layerView) float64 { return l.p50(name) / 1e3 }
}

func seconds(names ...string) func(*layerView) float64 {
	return func(l *layerView) float64 {
		s := 0.0
		for _, n := range names {
			s += l.p50(n)
		}
		return s / 1e6
	}
}

// spans counts the spans recorded under layer.<class>, self-time samples
// aside.
func (l *layerView) spans(layer string) (n float64) {
	for name, xs := range l.t.samples {
		if strings.HasPrefix(name, layer+".") && !strings.HasSuffix(name, ".self") {
			n += float64(len(xs))
		}
	}
	return n
}

func (l *layerView) fsyncs() (n float64) {
	for i := range l.traced {
		n += float64(l.traced[i].quality.Fsyncs)
	}
	return n
}

func lm(name, unit, better string, from func(*layerView) float64) layerMetric {
	return layerMetric{metricDef{Name: name, Unit: unit, Better: better}, from}
}

// perLayer lists the per-layer metrics of the traced run. A layer a
// workload bypasses reports 0 there. README.md says which end-to-end metric
// each of them is expected to move, on which workload.
var perLayer = []layerMetric{
	lm("tier.route_us_p50", "us", "lower", func(l *layerView) float64 {
		var self []float64
		for name, xs := range l.t.samples {
			if strings.HasPrefix(name, "tier.") && strings.HasSuffix(name, ".self") {
				self = append(self, xs...)
			}
		}
		return stats.Median(self)
	}),
	lm("tier.fanout_per_op", "count", "lower", func(l *layerView) float64 {
		if l.spans("tier") == 0 {
			return 0
		}
		return ratio(l.spans("server"), l.spans("tier"))
	}),
	lm("tier.retries", "count", "lower", func(l *layerView) float64 { return l.count("tier.retries") }),
	lm("tier.sheds", "count", "lower", func(l *layerView) float64 { return l.count("tier.sheds") }),

	lm("server.write_us_p50", "us", "lower", sampled("server.write")),
	lm("server.read_us_p50", "us", "lower", sampled("server.read")),
	lm("server.batch_ms_p50", "ms", "lower", ms("server.batch")),
	lm("server.self_us_p50", "us", "lower", func(l *layerView) float64 {
		if len(l.t.samples["server.write"]) == 0 {
			return 0
		}
		return l.p50("server.write") - l.p50("core.commit")
	}),

	lm("core.apply_us_p50", "us", "lower", sampled("core.apply")),
	lm("core.codec_us_p50", "us", "lower", func(l *layerView) float64 {
		return l.p50("core.decode") + l.p50("core.encode")
	}),
	lm("core.events_per_tick", "count", "lower", func(l *layerView) float64 {
		return ratio(l.count("core.events"), l.ticks())
	}),
	lm("core.buildbatch_ms_p50", "ms", "lower", ms("core.buildbatch")),
	lm("core.snapshot_ms", "ms", "lower", ms("core.snapshot")),
	lm("core.snapshot_kb", "KB", "lower", func(l *layerView) float64 {
		return ratio(l.count("core.snapshot_bytes")/1024, l.count("core.snapshots"))
	}),

	lm("wal.append_us_p50", "us", "lower", sampled("wal.append")),
	lm("wal.fsync_us_p50", "us", "lower", sampled("wal.fsync")),
	lm("wal.fsyncs_per_op", "count", "lower", func(l *layerView) float64 {
		return ratio(l.fsyncs(), l.ops())
	}),
	lm("wal.fsyncs_per_tick", "count", "lower", func(l *layerView) float64 {
		return ratio(l.fsyncs(), l.ticks())
	}),
	lm("wal.bytes_per_op", "B", "lower", func(l *layerView) float64 {
		return ratio(l.count("wal.bytes"), l.ops())
	}),
	lm("wal.recover_ms", "ms", "lower", ms("wal.recover")),
	lm("wal.readlog_ms", "ms", "lower", ms("wal.readlog")),

	lm("predict.forecast_us_p50", "us", "lower", sampled("predict.forecast")),
	lm("predict.forecasts_per_tick", "count", "lower", func(l *layerView) float64 {
		return ratio(l.count("predict.cache_hits")+l.count("predict.cache_misses"), l.ticks())
	}),
	lm("predict.cache_hit_rate", "ratio", "higher", func(l *layerView) float64 {
		return ratio(l.count("predict.cache_hits"), l.count("predict.cache_hits")+l.count("predict.cache_misses"))
	}),
	lm("predict.train_s", "s", "lower", seconds("predict.train")),
	lm("predict.eval_mr", "ratio", "higher", sampled("predict.eval_mr")),

	lm("nn.predict_us_p50", "us", "lower", sampled("nn.predict")),
	lm("nn.grad_us_p50", "us", "lower", sampled("nn.grad")),
	lm("nn.batchgrad_us_p50", "us", "lower", sampled("nn.batchgrad")),
	lm("nn.adam_us_p50", "us", "lower", sampled("nn.adam")),

	lm("meta.train_s", "s", "lower", seconds("meta.paths", "meta.train")),
	lm("meta.adapt_ms_p50", "ms", "lower", ms("meta.adapt")),
	lm("cluster.gtmc_ms", "ms", "lower", ms("cluster.gtmc")),
	lm("sim.similarity_ms", "ms", "lower", ms("sim.similarity")),

	lm("geo.index_build_ms_p50", "ms", "lower", ms("geo.index")),
	lm("geo.candidates_per_task", "count", "lower", func(l *layerView) float64 {
		return ratio(l.count("geo.candidates"), l.count("geo.tasks"))
	}),

	lm("assign.ppi_ms_p50", "ms", "lower", ms("assign.ppi")),
	lm("assign.km_ms_p50", "ms", "lower", ms("assign.km")),
	lm("assign.edges_per_batch", "count", "lower", func(l *layerView) float64 {
		return ratio(l.count("assign.edges"), l.count("assign.batches"))
	}),
	lm("assign.pairs_per_batch", "count", "higher", func(l *layerView) float64 {
		return ratio(l.count("assign.pairs"), l.count("assign.batches"))
	}),

	lm("platform.simulate_ms_p50", "ms", "lower", ms("platform.simulate")),
	lm("platform.tick_us_p50", "us", "lower", sampled("platform.tick")),
	lm("platform.assign_share", "ratio", "lower", sampled("platform.assign_share")),

	lm("replay.run_ms_p50", "ms", "lower", ms("replay.run")),
	lm("replay.agreement", "ratio", "higher", sampled("replay.agreement")),

	lm("quality.rejection_rate", "ratio", "lower", func(l *layerView) float64 {
		if len(l.traced) == 0 {
			return 0
		}
		q := l.traced[0].quality
		return ratio(float64(q.Offers-q.Accepted), float64(q.Offers))
	}),

	lm("bench.driver_us_per_op", "us", "lower", sampled("bench.driver")),
	lm("bench.op_p99_ms", "ms", "lower", func(l *layerView) float64 { return stats.Quantile(l.pooled(false), 0.99) }),
	lm("bench.read_p50_ms", "ms", "lower", func(l *layerView) float64 { return stats.Median(l.pooled(true)) }),
	lm("host.speed", "ratio", "higher", func(l *layerView) float64 { return ratio(K0, stats.Median(l.m.yards)) }),
	lm("host.request_speed", "ratio", "higher", func(l *layerView) float64 {
		return ratio(R0, stats.Median(l.m.requestYards))
	}),
	lm("host.sync_speed", "ratio", "higher", func(l *layerView) float64 {
		return ratio(S0, stats.Median(l.m.syncYards))
	}),
	lm("host.speed_iqr", "ratio", "lower", func(l *layerView) float64 { return spread(l.m.yards) }),
	lm("trace.coverage", "ratio", "higher", sampled("trace.coverage")),
	lm("trace.overhead", "ratio", "lower", func(l *layerView) float64 {
		wall := func(r *round) float64 { return r.wallS() }
		return ratio(stats.Median(roundValues(l.traced, wall)), stats.Median(roundValues(l.plain, wall)))
	}),
}
