package main

import (
	"encoding/json"
	"github.com/spatialcrowd/tamp/internal/stats"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/spatialcrowd/tamp/internal/predict"
)

// span is one timed call into a layer, as written to trace.json. Parent is
// the span that was open when this one began (0 = none): under the lockstep
// driver exactly one request is in flight, so the spans of a request nest —
// router handler, then the shard handlers it fans out to — and share the
// root's ID as their request identifier.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Request int     `json:"request"`
	Name    string  `json:"name"`
	StartUS float64 `json:"startUs"`
	EndUS   float64 `json:"endUs"`
}

// maxKeptSpans bounds trace.json: a fleet round polls 5 000 workers a tick.
const maxKeptSpans = 50_000

type openSpan struct {
	id, request int
	name        string
	start       time.Time
	childUS     float64
}

// tracer records spans around the benchmark's own calls into each layer;
// nothing inside the program under test is instrumented. A nil tracer is the
// untraced run: every method is a no-op on it. In a traced run the rounds
// alternate between armed and unarmed, so that the same process yields the
// tracing overhead as the ratio of their round times.
type tracer struct {
	mu     sync.Mutex
	on     bool // this round is traced
	paused bool // between pause and resume no span is recorded
	origin time.Time
	nextID int
	open   []openSpan

	keep    bool                 // spans of this round go to trace.json
	spans   []span               // the first armed round's spans
	samples map[string][]float64 // durations in µs by span name, all armed rounds
	selfUS  map[string]float64   // self time in µs by span name, this round
	counts  map[string]float64   // event counts by name, all armed rounds
	rounds  int                  // armed rounds so far
}

func newTracer() *tracer {
	return &tracer{samples: map[string][]float64{}, counts: map[string]float64{}}
}

// arm switches tracing on or off for the next round.
func (t *tracer) arm(on bool) {
	if t == nil {
		return
	}
	t.on = on
	t.selfUS = map[string]float64{}
	if on {
		t.rounds++
		t.keep = t.rounds == 1
	}
}

// active reports whether the current round is traced.
func (t *tracer) active() bool { return t != nil && t.on }

// pause and resume bracket the part of a traced round that builds state.
func (t *tracer) pause() {
	if t != nil {
		t.paused = true
	}
}

func (t *tracer) resume() {
	if t != nil {
		t.paused = false
	}
}

// start marks the origin of the round's span clock.
func (t *tracer) start() {
	if t.active() {
		t.origin = time.Now()
	}
}

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if !t.active() || t.paused {
		return func() {}
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	request := id
	if n := len(t.open); n > 0 {
		request = t.open[n-1].request
	}
	t.open = append(t.open, openSpan{id: id, request: request, name: name, start: time.Now()})
	t.mu.Unlock()
	return func() { t.close(id) }
}

func (t *tracer) close(id int) {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	i := len(t.open) - 1
	for i >= 0 && t.open[i].id != id {
		i--
	}
	if i < 0 {
		return
	}
	o := t.open[i]
	t.open = append(t.open[:i], t.open[i+1:]...)
	us := float64(end.Sub(o.start).Nanoseconds()) / 1e3
	parent := 0
	if i > 0 {
		parent = t.open[i-1].id
		t.open[i-1].childUS += us
	}
	t.samples[o.name] = append(t.samples[o.name], us)
	t.selfUS[o.name] += us - o.childUS
	if o.childUS > 0 {
		t.samples[o.name+".self"] = append(t.samples[o.name+".self"], us-o.childUS)
	}
	if t.keep && len(t.spans) < maxKeptSpans {
		s := float64(o.start.Sub(t.origin).Nanoseconds()) / 1e3
		t.spans = append(t.spans, span{ID: id, Parent: parent, Request: o.request, Name: o.name, StartUS: s, EndUS: s + us})
	}
}

// sample files a duration measured by the caller, in µs, under name.
func (t *tracer) sample(name string, us float64) {
	if t.active() {
		t.mu.Lock()
		t.samples[name] = append(t.samples[name], us)
		t.mu.Unlock()
	}
}

// count adds n to the named event count.
func (t *tracer) count(name string, n float64) {
	if t.active() {
		t.mu.Lock()
		t.counts[name] += n
		t.mu.Unlock()
	}
}

// selfTotal is the summed self time, in µs, of this round's spans whose name
// starts with prefix.
func (t *tracer) selfTotal(prefix string) (us float64) {
	for name, v := range t.selfUS {
		if strings.HasPrefix(name, prefix) {
			us += v
		}
	}
	return us
}

// coverage files, for the traced round the meter just ended, the share of
// its wall time that the layers account for: the driver's own cost per
// request (measured against a handler that does nothing) times the requests
// it issued, plus the self time of every span under the given prefixes.
func (t *tracer) coverage(m *meter, driverUS float64, requests int, prefixes ...string) {
	if !t.active() {
		return
	}
	covered := driverUS * float64(requests)
	for _, p := range prefixes {
		covered += t.selfTotal(p)
	}
	t.sample("trace.coverage", covered/(m.rounds[len(m.rounds)-1].wallS()*1e6))
	t.sample("bench.driver", driverUS)
}

// trained files what set-up learned about the predictors it trained.
func (t *tracer) trained(pred *predict.Result) {
	t.sample("predict.train", float64(pred.TrainTime.Nanoseconds())/1e3)
	t.sample("predict.eval_mr", pred.Eval.MR)
}

// noopLatency is the driver's own cost per request, in µs: the median
// latency of a few thousand writes against a handler that only answers.
// connect puts that handler behind the transport the workload drives.
func noopLatency(connect func(h http.Handler) (caller, func(), error)) (float64, error) {
	call, hangUp, err := connect(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("{}\n"))
	}))
	if err != nil {
		return 0, err
	}
	defer hangUp()
	body := []byte(`{"x":12.5,"y":7.25}`)
	var us []float64
	for i := 0; i < 3000; i++ {
		start := time.Now()
		if _, _, err := call(http.MethodPost, "/api/workers/1/location", body); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return stats.Median(us[len(us)/3:]), nil
}

// requestClass names a request by what it does to the platform.
func requestClass(r *http.Request) string {
	switch {
	case r.URL.Path == "/api/batch":
		return "batch"
	case r.Method == http.MethodGet:
		return "read"
	case r.URL.Path == "/api/tick":
		return "clock"
	default:
		return "write"
	}
}

// wrap puts a span named layer.<request class> around every request h
// serves.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		end := t.span(layer + "." + requestClass(r))
		h.ServeHTTP(w, r)
		end()
	})
}

// wrapTier is bootTier's wrap argument: the router is the tier layer and
// the shards the server layer. Unarmed rounds run on the bare handlers.
func (t *tracer) wrapTier() func(shard int, h http.Handler) http.Handler {
	if !t.active() {
		return nil
	}
	return func(shard int, h http.Handler) http.Handler {
		if shard < 0 {
			return t.wrap("tier", h)
		}
		return t.wrap("server", h)
	}
}

type layerSummary struct {
	Count   int     `json:"count"`
	TotalUS float64 `json:"totalUs"`
	P50US   float64 `json:"p50Us"`
}

// write stores the first armed round's spans and the per-name summaries of
// all armed rounds.
func (t *tracer) write(path, workload string, seed int64) error {
	layers := map[string]layerSummary{}
	for name, xs := range t.samples {
		total := 0.0
		for _, x := range xs {
			total += x
		}
		layers[name] = layerSummary{Count: len(xs), TotalUS: total, P50US: stats.Median(xs)}
	}
	doc := struct {
		Workload string                  `json:"workload"`
		Seed     int64                   `json:"seed"`
		Rounds   int                     `json:"tracedRounds"`
		Layers   map[string]layerSummary `json:"layers"`
		Counts   map[string]float64      `json:"counts"`
		Spans    []span                  `json:"spans"`
	}{workload, seed, t.rounds, layers, t.counts, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
