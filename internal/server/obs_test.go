package server

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/fault"
	"github.com/spatialcrowd/tamp/internal/httpapi"
	"github.com/spatialcrowd/tamp/internal/predict"
)

// fetchText GETs a non-JSON endpoint and returns status, content type, body.
func fetchText(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// mirrored is every core.Counts tally the shard mirrors into its registry,
// with the series GET /metrics exports it under.
var mirrored = []struct {
	series string
	tally  func(core.Counts) int64
}{
	{"tamp_server_offers_total", func(c core.Counts) int64 { return c.Offers }},
	{"tamp_server_accepts_total", func(c core.Counts) int64 { return c.Accepts }},
	{"tamp_server_rejects_total", func(c core.Counts) int64 { return c.Rejects }},
	{"tamp_server_expired_total", func(c core.Counts) int64 { return c.Expired }},
	{"tamp_server_batches_total", func(c core.Counts) int64 { return c.Batches }},
	{`tamp_server_faults_total{kind="degraded_batch"}`, func(c core.Counts) int64 { return c.DegradedBatches }},
	{`tamp_server_faults_total{kind="pred_fallback"}`, func(c core.Counts) int64 { return c.PredFallbacks }},
}

// scrape GETs /metrics from the server behind c and returns its body and
// each sample's value keyed by series (name plus label block).
func scrape(t *testing.T, c *client) (string, map[string]string) {
	t.Helper()
	status, ctype, body := fetchText(t, c.srv.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", status)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ctype)
	}
	samples := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			samples[line[:i]] = line[i+1:]
		}
	}
	return body, samples
}

// tallies reads every mirrored series off /metrics and checks it against
// the state machine's own tally.
func tallies(t *testing.T, c *client) map[string]string {
	t.Helper()
	_, samples := scrape(t, c)
	c.s.mu.Lock()
	counts := c.s.st.Counts
	c.s.mu.Unlock()
	out := map[string]string{}
	for _, m := range mirrored {
		got, ok := samples[m.series]
		if want := strconv.FormatInt(m.tally(counts), 10); !ok || got != want {
			t.Errorf("/metrics %s = %q (present %v), state tally %s", m.series, got, ok, want)
		}
		out[m.series] = got
	}
	return out
}

// TestMetricsEndpointMirrorsCounts drives the protocol once on a durable
// shard — an accept, a reject, an expiry and a predictor fallback — and
// checks that GET /metrics carries every tally the state machine counts,
// and that a restart on the same write-ahead log continues each series
// where it stopped.
func TestMetricsEndpointMirrorsCounts(t *testing.T) {
	cfg := testConfig()
	cfg.WALDir = t.TempDir()
	cfg.Models = map[int]*predict.WorkerModel{
		3: {WorkerID: 3, Model: &fault.PanicModel{}, SeqIn: 3, SeqOut: 1},
	}
	c, s1, ts1 := newDurableClient(t, cfg)
	for id, x := range map[int]float64{1: 10, 2: 40, 3: 70} {
		c.do("POST", "/api/workers", httpapi.WorkerRequest{ID: id, DetourKM: 8, Speed: 1, MR: 0.8}, nil)
		walkWorker(c, id, 6, x, 10)
	}
	for _, x := range []float64{18, 48, 76} {
		c.do("POST", "/api/tasks", httpapi.TaskRequest{X: x, Y: 10, Deadline: 30}, nil)
	}
	c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 5, Y: 45, Deadline: 1}, nil)
	var batch httpapi.BatchResponse
	c.do("POST", "/api/batch", nil, &batch)
	if batch.Offers != 3 {
		t.Fatalf("offers = %d, want 3", batch.Offers)
	}
	for id, action := range map[int]string{1: "accept", 2: "reject"} {
		var offers []httpapi.OfferResponse
		c.do("GET", fmt.Sprintf("/api/workers/%d/offers", id), nil, &offers)
		c.do("POST", fmt.Sprintf("/api/offers/%d/%s", offers[0].OfferID, action), nil, nil)
	}
	c.do("POST", "/api/tick", nil, nil)
	c.do("POST", "/api/tick", nil, nil)

	body, _ := scrape(t, c)
	for _, want := range []string{
		"# TYPE tamp_server_offers_total counter",
		"tamp_server_offers_total 3",
		"tamp_server_accepts_total 1",
		"tamp_server_rejects_total 1",
		"tamp_server_expired_total 1",
		"tamp_server_batches_total 1",
		"# TYPE tamp_server_batch_seconds histogram",
		"tamp_server_batch_seconds_count 1",
		`tamp_server_faults_total{kind="panic"} 0`,
		`tamp_server_faults_total{kind="degraded_batch"} 0`,
		`tamp_server_faults_total{kind="pred_fallback"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\nbody:\n%s", want, body)
		}
	}
	// The batch ran through the server's registry, so the assignment phase
	// spans must have recorded there too.
	if !strings.Contains(body, `tamp_phase_seconds_count{phase="assign.ppi"} 1`) {
		t.Errorf("/metrics missing assign.ppi span\nbody:\n%s", body)
	}
	before := tallies(t, c)

	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	c2, s2, ts2 := newDurableClient(t, cfg)
	defer ts2.Close()
	if after := tallies(t, c2); !reflect.DeepEqual(after, before) {
		t.Fatalf("tallies after restart = %v, want %v", after, before)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPprofGating checks /debug/pprof/ is absent by default and mounted
// only when Config.EnablePprof is set.
func TestPprofGating(t *testing.T) {
	off := newClient(t, testConfig())
	if status, _, _ := fetchText(t, off.srv.URL+"/debug/pprof/"); status != http.StatusNotFound {
		t.Fatalf("pprof off: status = %d, want 404", status)
	}

	cfg := testConfig()
	cfg.EnablePprof = true
	on := newClient(t, cfg)
	status, _, body := fetchText(t, on.srv.URL+"/debug/pprof/")
	if status != http.StatusOK {
		t.Fatalf("pprof on: status = %d, want 200", status)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index body unexpected:\n%s", body)
	}
}
