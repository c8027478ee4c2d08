package obs

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestPrometheusGolden pins the full text exposition for a registry holding
// every metric kind, label shapes included. Any format drift — ordering,
// float rendering, bucket cumulation — fails here before a scraper sees it.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	clock := newFakeClock(250 * time.Millisecond)
	r.SetClock(clock.Now)

	r.Counter("tamp_sim_offers_total").Add(42)
	r.Counter("tamp_faults_total", L("kind", "dropped_report")).Add(3)
	r.Counter("tamp_faults_total", L("kind", "offline_tick")).Add(7)
	r.Gauge("tamp_pred_mr").Set(0.8125)

	h := r.Histogram("tamp_batch_seconds", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(50)

	// One span on the injected clock: starts at t=250ms, ends at t=500ms.
	ctx := WithRegistry(context.Background(), r)
	_, end := Span(ctx, "sim")
	end()

	want := strings.Join([]string{
		`# TYPE tamp_batch_seconds histogram`,
		`tamp_batch_seconds_bucket{le="0.01"} 1`,
		`tamp_batch_seconds_bucket{le="0.1"} 3`,
		`tamp_batch_seconds_bucket{le="1"} 3`,
		`tamp_batch_seconds_bucket{le="+Inf"} 4`,
		`tamp_batch_seconds_sum 50.105`,
		`tamp_batch_seconds_count 4`,
		`# TYPE tamp_faults_total counter`,
		`tamp_faults_total{kind="dropped_report"} 3`,
		`tamp_faults_total{kind="offline_tick"} 7`,
		`# TYPE tamp_phase_seconds histogram`,
		`tamp_phase_seconds_bucket{phase="sim",le="1e-06"} 0`,
		`tamp_phase_seconds_bucket{phase="sim",le="1e-05"} 0`,
		`tamp_phase_seconds_bucket{phase="sim",le="0.0001"} 0`,
		`tamp_phase_seconds_bucket{phase="sim",le="0.001"} 0`,
		`tamp_phase_seconds_bucket{phase="sim",le="0.01"} 0`,
		`tamp_phase_seconds_bucket{phase="sim",le="0.05"} 0`,
		`tamp_phase_seconds_bucket{phase="sim",le="0.1"} 0`,
		`tamp_phase_seconds_bucket{phase="sim",le="0.5"} 1`,
		`tamp_phase_seconds_bucket{phase="sim",le="1"} 1`,
		`tamp_phase_seconds_bucket{phase="sim",le="5"} 1`,
		`tamp_phase_seconds_bucket{phase="sim",le="15"} 1`,
		`tamp_phase_seconds_bucket{phase="sim",le="60"} 1`,
		`tamp_phase_seconds_bucket{phase="sim",le="+Inf"} 1`,
		`tamp_phase_seconds_sum{phase="sim"} 0.25`,
		`tamp_phase_seconds_count{phase="sim"} 1`,
		`# TYPE tamp_pred_mr gauge`,
		`tamp_pred_mr 0.8125`,
		`# TYPE tamp_sim_offers_total counter`,
		`tamp_sim_offers_total 42`,
	}, "\n") + "\n"

	if got := r.Dump(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestHandler serves the registry over HTTP and checks content type and a
// counter line round-trip.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "hits_total 1") {
		t.Fatalf("body missing counter: %s", body)
	}

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/metrics", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", resp2.StatusCode)
	}
}

// TestLabelEscaping: label values with quotes, backslashes, and newlines
// must render escaped per the exposition format.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", L("v", "a\"b\\c\nd")).Inc()
	got := r.Dump()
	want := `esc_total{v="a\"b\\c\nd"} 1`
	if !strings.Contains(got, want) {
		t.Fatalf("escaping wrong:\n%s", got)
	}
}
