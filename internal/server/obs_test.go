package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
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

// TestMetricsEndpointMirrorsJSON drives the full protocol once and checks
// that GET /metrics exports the same counts /api/metrics reports — both
// views read the same registry series.
func TestMetricsEndpointMirrorsJSON(t *testing.T) {
	c := newClient(t, testConfig())
	c.do("POST", "/api/workers", workerRequest{ID: 1, DetourKM: 8, Speed: 1, MR: 0.8}, nil)
	walkWorker(c, 1, 6, 10, 10)
	var task taskResponse
	c.do("POST", "/api/tasks", taskRequest{X: 18, Y: 10, Deadline: 30}, &task)
	var batch batchResponse
	c.do("POST", "/api/batch", nil, &batch)
	if batch.Offers != 1 {
		t.Fatalf("offers = %d, want 1", batch.Offers)
	}
	var offers []offerResponse
	c.do("GET", "/api/workers/1/offers", nil, &offers)
	c.do("POST", fmt.Sprintf("/api/offers/%d/accept", offers[0].OfferID), nil, nil)

	status, ctype, body := fetchText(t, c.srv.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", status)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ctype)
	}
	for _, want := range []string{
		"# TYPE tamp_server_offers_total counter",
		"tamp_server_offers_total 1",
		"tamp_server_accepts_total 1",
		"tamp_server_rejects_total 0",
		"tamp_server_batches_total 1",
		"# TYPE tamp_server_batch_seconds histogram",
		"tamp_server_batch_seconds_count 1",
		`tamp_server_faults_total{kind="panic"} 0`,
		`tamp_server_faults_total{kind="degraded_batch"} 0`,
		`tamp_server_faults_total{kind="pred_fallback"} 0`,
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

	var m metricsResponse
	c.do("GET", "/api/metrics", nil, &m)
	if m.Assigned != 1 || m.Accepted != 1 || m.Rejected != 0 {
		t.Fatalf("JSON metrics diverged from registry: %+v", m)
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
