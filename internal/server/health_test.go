package server

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/httpapi"
	"github.com/spatialcrowd/tamp/internal/wal"
)

func TestHealthzAndReadyzOnLiveServer(t *testing.T) {
	c := newClient(t, testConfig())
	var body map[string]string
	if code := c.do("GET", "/healthz", nil, &body); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if body["status"] != "ok" {
		t.Errorf("healthz body = %v", body)
	}
	if code := c.do("GET", "/readyz", nil, &body); code != http.StatusOK {
		t.Fatalf("readyz status %d", code)
	}
	if body["status"] != "ready" {
		t.Errorf("readyz body = %v", body)
	}
}

// Probes must answer while the state lock is held by a wedged batch —
// that is the difference between "liveness" and "every other endpoint".
func TestProbesAnswerWhileStateLockHeld(t *testing.T) {
	c, s, _ := newDurableClient(t, testConfig())
	t.Cleanup(c.srv.Close)
	s.mu.Lock()
	defer s.mu.Unlock()
	done := make(chan int, 2)
	for _, path := range []string{"/healthz", "/readyz"} {
		go func(p string) { done <- c.do("GET", p, nil, nil) }(path)
	}
	for i := 0; i < 2; i++ {
		select {
		case code := <-done:
			if code != http.StatusOK {
				t.Fatalf("probe status %d with lock held", code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("probe blocked on the state lock")
		}
	}
}

// The hardening middleware must not put a deadline on the probe endpoints
// (like pprof), while the /api routes keep theirs.
func TestProbeEndpointsExemptFromRequestTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.RequestTimeout = time.Minute
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a capture mux under the real middleware: the routes are not
	// under test here, the deadline decision is.
	var hasDeadline bool
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		_, hasDeadline = r.Context().Deadline()
		w.WriteHeader(http.StatusOK)
	})
	for path, want := range map[string]bool{
		"/healthz":             false,
		"/readyz":              false,
		"/debug/pprof/profile": false,
		"/api/tick":            true,
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if hasDeadline != want {
			t.Errorf("%s: request deadline = %v, want %v", path, hasDeadline, want)
		}
	}
}

// seedWAL writes a short, valid event history into dir.
func seedWAL(t *testing.T, dir string, evs ...core.Event) {
	t.Helper()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, ev := range evs {
		b, err := core.EncodeEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeferredRecoveryFlipsReadyz(t *testing.T) {
	cfg := testConfig()
	cfg.WALDir = t.TempDir()
	seedWAL(t, cfg.WALDir,
		core.WorkerRegistered{WorkerID: 7, Detour: 10, Speed: 1},
		core.WorkerReported{WorkerID: 7, X: 3, Y: 3},
		core.TaskSubmitted{TaskID: 1, X: 4, Y: 3, Deadline: 20},
	)
	cfg.DeferRecovery = true
	c, s, _ := newDurableClient(t, cfg)
	t.Cleanup(c.srv.Close)
	t.Cleanup(func() { s.Close() })
	// Liveness holds throughout; readiness flips once the replay completes.
	if code := c.do("GET", "/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz status %d during recovery", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.do("GET", "/readyz", nil, nil) != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("deferred recovery never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	var task httpapi.TaskResponse
	if code := c.do("GET", "/api/tasks/1", nil, &task); code != http.StatusOK {
		t.Fatalf("recovered task status %d", code)
	}
	if task.Status != string(core.StatusOpen) {
		t.Errorf("recovered task status = %s", task.Status)
	}
}

func TestDeferredRecoveryFailureStaysUnready(t *testing.T) {
	cfg := testConfig()
	cfg.WALDir = t.TempDir()
	// An offer decision with no offer behind it can never apply: the log is
	// structurally intact but semantically divergent, the one recovery error
	// that must not be papered over.
	seedWAL(t, cfg.WALDir, core.OfferAccepted{OfferID: 99})
	cfg.DeferRecovery = true
	c, s, _ := newDurableClient(t, cfg)
	t.Cleanup(c.srv.Close)
	t.Cleanup(func() { s.Close() })

	deadline := time.Now().Add(10 * time.Second)
	for s.failure.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("recovery error never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
	var body map[string]string
	if code := c.do("GET", "/readyz", nil, &body); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz status %d after failed recovery, want 503", code)
	}
	if body["error"] == "" {
		t.Errorf("readyz body carries no reason: %v", body)
	}
	// Platform routes are refused rather than served from a broken state.
	if code := c.do("POST", "/api/tick", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("api status %d on unready server, want 503", code)
	}
	if code := c.do("GET", "/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz status %d, liveness must survive a failed recovery", code)
	}
}

func TestExplicitTaskIDAndOfferLookup(t *testing.T) {
	c := newClient(t, testConfig())
	c.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 1, DetourKM: 8, Speed: 1, MR: 0.9}, nil)
	walkWorker(c, 1, 4, 10, 10)

	var task httpapi.TaskResponse
	if code := c.do("POST", "/api/tasks", httpapi.TaskRequest{ID: 5001, X: 12, Y: 10, Deadline: 30}, &task); code != http.StatusCreated {
		t.Fatalf("explicit-id submit status %d", code)
	}
	if task.ID != 5001 {
		t.Fatalf("task id = %d, want the caller-chosen 5001", task.ID)
	}
	if code := c.do("POST", "/api/tasks", httpapi.TaskRequest{ID: 5001, X: 12, Y: 10, Deadline: 30}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate explicit id status %d, want 409", code)
	}

	c.do("POST", "/api/batch", nil, nil)
	var offers []httpapi.OfferResponse
	c.do("GET", "/api/workers/1/offers", nil, &offers)
	if len(offers) != 1 {
		t.Fatalf("offers = %+v", offers)
	}
	var rec httpapi.OfferRecord
	if code := c.do("GET", fmt.Sprintf("/api/offers/%d", offers[0].OfferID), nil, &rec); code != http.StatusOK {
		t.Fatalf("offer lookup status %d", code)
	}
	if rec.TaskID != 5001 || rec.WorkerID != 1 {
		t.Errorf("offer record = %+v", rec)
	}
	if code := c.do("GET", "/api/offers/424242", nil, nil); code != http.StatusNotFound {
		t.Errorf("missing offer lookup status %d, want 404", code)
	}
}

// TestTaskIDLimit: a caller-chosen task id at or above 2^53 is answered
// 400 and changes nothing, so an id-less submit after it still gets the
// next id. Once the next id reaches the limit, an id-less submit is 409,
// and an explicit unused id still gets in.
func TestTaskIDLimit(t *testing.T) {
	// idLimit is the 2^53 task id limit where an int reaches it.
	const idLimit = min(1<<53, math.MaxInt)
	if idLimit < 1<<53 {
		t.Skip("a 32-bit int cannot reach the 2^53 task id limit")
	}
	if httpapi.TaskIDLimit != core.TaskIDLimit {
		t.Fatalf("httpapi.TaskIDLimit %d, core.TaskIDLimit %d", httpapi.TaskIDLimit, core.TaskIDLimit)
	}
	c := newClient(t, testConfig())
	for _, id := range []int{idLimit, math.MaxInt} {
		if code := c.do("POST", "/api/tasks", httpapi.TaskRequest{ID: id, X: 1, Y: 1, Deadline: 30}, nil); code != http.StatusBadRequest {
			t.Errorf("task id %d: status %d, want 400", id, code)
		}
	}
	var task httpapi.TaskResponse
	if code := c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 1, Y: 1, Deadline: 30}, &task); code != http.StatusCreated || task.ID != 1 {
		t.Fatalf("id-less submit after refused ids: status %d, task %+v", code, task)
	}
	if code := c.do("POST", "/api/tasks", httpapi.TaskRequest{ID: idLimit - 1, X: 1, Y: 1, Deadline: 30}, nil); code != http.StatusCreated {
		t.Fatalf("task id 2^53-1: status %d, want 201", code)
	}
	if code := c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 1, Y: 1, Deadline: 30}, nil); code != http.StatusConflict {
		t.Errorf("id-less submit with no id left: status %d, want 409", code)
	}
	if code := c.do("POST", "/api/tasks", httpapi.TaskRequest{ID: 7, X: 1, Y: 1, Deadline: 30}, nil); code != http.StatusCreated {
		t.Errorf("explicit unused id with no id left: status %d, want 201", code)
	}
}

func TestOfferBaseDisjointsIDSpace(t *testing.T) {
	cfg := testConfig()
	cfg.OfferBase = 2_000_000_000
	c := newClient(t, cfg)
	c.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 1, DetourKM: 8, Speed: 1, MR: 0.9}, nil)
	walkWorker(c, 1, 4, 10, 10)
	c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 12, Y: 10, Deadline: 30}, nil)
	c.do("POST", "/api/batch", nil, nil)
	var offers []httpapi.OfferResponse
	c.do("GET", "/api/workers/1/offers", nil, &offers)
	if len(offers) != 1 || offers[0].OfferID != 2_000_000_000 {
		t.Fatalf("offers = %+v, want a single offer with id 2000000000", offers)
	}
}
