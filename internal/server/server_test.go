package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/httpapi"
	"github.com/spatialcrowd/tamp/internal/obs"
)

// client wraps an httptest server with JSON helpers.
type client struct {
	t   *testing.T
	s   *Server
	srv *httptest.Server
}

func newClient(t *testing.T, cfg Config) *client {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return &client{t: t, s: s, srv: ts}
}

// count reads a counter off the registry of the server behind c: the
// series GET /metrics exports.
func (c *client) count(name string, labels ...obs.Label) int64 {
	return c.s.Registry().Counter(name, labels...).Value()
}

// fault reads tamp_server_faults_total{kind}.
func (c *client) fault(kind string) int64 {
	return c.count("tamp_server_faults_total", obs.L("kind", kind))
}

func (c *client) do(method, path string, body any, out any) int {
	c.t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			c.t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, c.srv.URL+path, &buf)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func testConfig() Config {
	return Config{
		Grid:     geo.Grid{Cols: 100, Rows: 50},
		Assigner: assign.PPI{A: 1.5},
	}
}

// walkWorker reports a straight eastward trace for the worker.
func walkWorker(c *client, id, steps int, x0, y float64) {
	for i := 0; i < steps; i++ {
		code := c.do("POST", fmt.Sprintf("/api/workers/%d/location", id),
			httpapi.LocationRequest{X: x0 + float64(i), Y: y}, nil)
		if code != http.StatusOK {
			c.t.Fatalf("location report status %d", code)
		}
	}
}

func TestFullProtocolAcceptFlow(t *testing.T) {
	c := newClient(t, testConfig())

	// Worker registers and reports a moving trace (step "online").
	if code := c.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 1, DetourKM: 8, Speed: 1, MR: 0.8}, nil); code != http.StatusCreated {
		t.Fatalf("register status %d", code)
	}
	walkWorker(c, 1, 6, 10, 10)

	// Requester posts a task on the worker's projected route (step 1).
	var task httpapi.TaskResponse
	if code := c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 18, Y: 10, Deadline: 30}, &task); code != http.StatusCreated {
		t.Fatalf("post task status %d", code)
	}
	if task.Status != string(core.StatusOpen) {
		t.Fatalf("task status = %s", task.Status)
	}

	// Platform batch (step 2) creates an offer.
	var batch httpapi.BatchResponse
	c.do("POST", "/api/batch", nil, &batch)
	if batch.Offers != 1 {
		t.Fatalf("offers = %d, want 1", batch.Offers)
	}

	// Worker fetches and accepts the offer (step 3).
	var offers []httpapi.OfferResponse
	c.do("GET", "/api/workers/1/offers", nil, &offers)
	if len(offers) != 1 || offers[0].TaskID != task.ID {
		t.Fatalf("offers = %+v", offers)
	}
	if code := c.do("POST", fmt.Sprintf("/api/offers/%d/accept", offers[0].OfferID), nil, nil); code != http.StatusOK {
		t.Fatalf("accept status %d", code)
	}

	// Requester sees the acceptance (step 4).
	var got httpapi.TaskResponse
	c.do("GET", fmt.Sprintf("/api/tasks/%d", task.ID), nil, &got)
	if got.Status != string(core.StatusAccepted) || got.Worker != 1 {
		t.Fatalf("task after accept = %+v", got)
	}

	if o, a, r := c.count("tamp_server_offers_total"), c.count("tamp_server_accepts_total"), c.count("tamp_server_rejects_total"); o != 1 || a != 1 || r != 0 {
		t.Fatalf("offers, accepts, rejects = %d, %d, %d; want 1, 1, 0", o, a, r)
	}
}

func TestRejectExcludesPairForever(t *testing.T) {
	c := newClient(t, testConfig())
	c.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 1, DetourKM: 8, Speed: 1, MR: 0.8}, nil)
	walkWorker(c, 1, 6, 10, 10)
	var task httpapi.TaskResponse
	c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 18, Y: 10, Deadline: 40}, &task)

	var batch httpapi.BatchResponse
	c.do("POST", "/api/batch", nil, &batch)
	if batch.Offers != 1 {
		t.Fatalf("offers = %d", batch.Offers)
	}
	var offers []httpapi.OfferResponse
	c.do("GET", "/api/workers/1/offers", nil, &offers)
	c.do("POST", fmt.Sprintf("/api/offers/%d/reject", offers[0].OfferID), nil, nil)

	// Task returns to the pool but the same worker is never re-offered it.
	var got httpapi.TaskResponse
	c.do("GET", fmt.Sprintf("/api/tasks/%d", task.ID), nil, &got)
	if got.Status != string(core.StatusOpen) {
		t.Fatalf("task after reject = %+v", got)
	}
	c.do("POST", "/api/batch", nil, &batch)
	if batch.Offers != 0 {
		t.Fatalf("re-offered a declined pair: %+v", batch)
	}
	if r := c.count("tamp_server_rejects_total"); r != 1 {
		t.Fatalf("rejects = %d, want 1", r)
	}
}

func TestTickExpiry(t *testing.T) {
	c := newClient(t, testConfig())
	var task httpapi.TaskResponse
	c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 5, Y: 5, Deadline: 2}, &task)
	for i := 0; i < 3; i++ {
		c.do("POST", "/api/tick", nil, nil)
	}
	var got httpapi.TaskResponse
	c.do("GET", fmt.Sprintf("/api/tasks/%d", task.ID), nil, &got)
	if got.Status != string(core.StatusExpired) {
		t.Fatalf("task after deadline = %+v", got)
	}
	var tick map[string]int
	c.do("GET", "/api/tick", nil, &tick)
	if e := c.count("tamp_server_expired_total"); e != 1 || tick["tick"] != 3 {
		t.Fatalf("expired = %d at tick %v; want 1 at tick 3", e, tick)
	}
}

func TestTaskValidationAndCancel(t *testing.T) {
	c := newClient(t, testConfig())
	// Deadline in the past rejected.
	if code := c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 1, Y: 1, Deadline: 0}, nil); code != http.StatusBadRequest {
		t.Fatalf("past deadline accepted: %d", code)
	}
	var task httpapi.TaskResponse
	c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 1, Y: 1, Deadline: 10}, &task)
	if code := c.do("DELETE", fmt.Sprintf("/api/tasks/%d", task.ID), nil, &task); code != http.StatusOK {
		t.Fatalf("cancel status %d", code)
	}
	if task.Status != string(core.StatusCancelled) {
		t.Fatalf("status after cancel = %s", task.Status)
	}
	// Unknown task 404s.
	if code := c.do("GET", "/api/tasks/999", nil, nil); code != http.StatusNotFound {
		t.Fatalf("missing task status %d", code)
	}
}

func TestWorkerValidation(t *testing.T) {
	c := newClient(t, testConfig())
	if code := c.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 0}, nil); code != http.StatusBadRequest {
		t.Fatalf("zero id accepted: %d", code)
	}
	c.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 5}, nil)
	if code := c.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 5}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate registration status %d", code)
	}
	if code := c.do("POST", "/api/workers/99/location", httpapi.LocationRequest{X: 1, Y: 1}, nil); code != http.StatusNotFound {
		t.Fatalf("unregistered location status %d", code)
	}
	// Defaults applied.
	var ws httpapi.WorkerResponse
	c.do("GET", "/api/workers/5", nil, &ws)
	if ws.DetourKM != 6 || ws.Speed != 3 {
		t.Fatalf("defaults = %+v", ws)
	}
}

func TestOneOfferPerWorkerAtATime(t *testing.T) {
	c := newClient(t, testConfig())
	c.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 1, DetourKM: 10, Speed: 1, MR: 0.9}, nil)
	walkWorker(c, 1, 6, 10, 10)
	// Two nearby tasks; only one offer may be pending for the worker.
	c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 17, Y: 10, Deadline: 40}, nil)
	c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 19, Y: 10, Deadline: 40}, nil)
	var batch httpapi.BatchResponse
	c.do("POST", "/api/batch", nil, &batch)
	if batch.Offers != 1 {
		t.Fatalf("offers = %d, want 1 (worker busy deciding)", batch.Offers)
	}
	c.do("POST", "/api/batch", nil, &batch)
	if batch.Offers != 0 {
		t.Fatalf("second batch made %d offers while one is pending", batch.Offers)
	}
}

func TestListEndpoints(t *testing.T) {
	c := newClient(t, testConfig())
	c.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 1}, nil)
	c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 1, Y: 1, Deadline: 5}, nil)
	var tasks []httpapi.TaskResponse
	c.do("GET", "/api/tasks", nil, &tasks)
	if len(tasks) != 1 {
		t.Fatalf("task list = %v", tasks)
	}
	var workers []httpapi.WorkerResponse
	c.do("GET", "/api/workers", nil, &workers)
	if len(workers) != 1 {
		t.Fatalf("worker list = %v", workers)
	}
}
