package obs

import (
	"bufio"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// famSnapshot is one family captured under the registry lock; metric values
// are still read atomically at render time.
type famSnapshot struct {
	name, kind string
	keys       []string
	series     []any
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and series
// sorted by label block, so the output is deterministic — the golden tests
// and `tampsim -metrics` both rely on that.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	snaps := make([]famSnapshot, 0, len(r.families))
	for name, f := range r.families {
		s := famSnapshot{name: name, kind: f.kind}
		s.keys = make([]string, 0, len(f.series))
		for k := range f.series {
			s.keys = append(s.keys, k)
		}
		sort.Strings(s.keys)
		s.series = make([]any, len(s.keys))
		for i, k := range s.keys {
			s.series[i] = f.series[k]
		}
		snaps = append(snaps, s)
	}
	r.mu.Unlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].name < snaps[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range snaps {
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind)
		bw.WriteByte('\n')
		for i, k := range f.keys {
			switch m := f.series[i].(type) {
			case *Counter:
				bw.WriteString(f.name)
				bw.WriteString(k)
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatInt(m.Value(), 10))
				bw.WriteByte('\n')
			case *Gauge:
				bw.WriteString(f.name)
				bw.WriteString(k)
				bw.WriteByte(' ')
				bw.WriteString(formatFloat(m.Value()))
				bw.WriteByte('\n')
			case *Histogram:
				writeHistogram(bw, f.name, k, m)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series: cumulative buckets, then
// _sum and _count.
func writeHistogram(bw *bufio.Writer, name, labelBlock string, h *Histogram) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeBucket(bw, name, labelBlock, formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	writeBucket(bw, name, labelBlock, "+Inf", cum)

	bw.WriteString(name)
	bw.WriteString("_sum")
	bw.WriteString(labelBlock)
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(h.Sum()))
	bw.WriteByte('\n')
	bw.WriteString(name)
	bw.WriteString("_count")
	bw.WriteString(labelBlock)
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatInt(h.Count(), 10))
	bw.WriteByte('\n')
}

// writeBucket emits one `name_bucket{...,le="bound"} cum` line, splicing le
// into an existing label block when the series already has labels.
func writeBucket(bw *bufio.Writer, name, labelBlock, le string, cum int64) {
	bw.WriteString(name)
	bw.WriteString("_bucket")
	if labelBlock == "" {
		bw.WriteString(`{le="`)
		bw.WriteString(le)
		bw.WriteString(`"}`)
	} else {
		bw.WriteString(strings.TrimSuffix(labelBlock, "}"))
		bw.WriteString(`,le="`)
		bw.WriteString(le)
		bw.WriteString(`"}`)
	}
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatInt(cum, 10))
	bw.WriteByte('\n')
}

// Dump returns the full Prometheus text exposition as a string — the
// end-of-run summary printed by `tampsim -metrics` and `tampbench -metrics`.
func (r *Registry) Dump() string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

// Handler returns the GET /metrics endpoint serving the registry in
// Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
