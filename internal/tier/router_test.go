package tier

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/httpapi"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/par"
	"github.com/spatialcrowd/tamp/internal/server"
)

// restartableShard runs a real server.Server on a fixed address so tests can
// kill it and bring a replacement back on the same endpoint — exactly what a
// supervised process does in production.
type restartableShard struct {
	t    *testing.T
	addr string
	cfg  server.Config
	srv  *server.Server
	ts   *httptest.Server
}

func newRestartableShard(t *testing.T, cfg server.Config) *restartableShard {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := &restartableShard{t: t, addr: l.Addr().String(), cfg: cfg}
	rs.start(l)
	t.Cleanup(func() { rs.ts.Close() })
	return rs
}

func (rs *restartableShard) start(l net.Listener) {
	rs.t.Helper()
	s, err := server.New(rs.cfg)
	if err != nil {
		rs.t.Fatal(err)
	}
	ts := &httptest.Server{Listener: l, Config: &http.Server{Handler: s}}
	ts.Start()
	rs.srv, rs.ts = s, ts
}

// kill closes the listener and drops live connections: from the router's
// side the shard is simply gone. The server.Server object is closed too so
// its WAL handle releases the directory for the successor.
func (rs *restartableShard) kill() {
	rs.ts.CloseClientConnections()
	rs.ts.Close()
	rs.srv.Close()
}

// restart brings a fresh server up on the shard's original address.
func (rs *restartableShard) restart() {
	rs.t.Helper()
	var l net.Listener
	var err error
	for i := 0; i < 200; i++ {
		if l, err = net.Listen("tcp", rs.addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		rs.t.Fatalf("re-listen on %s: %v", rs.addr, err)
	}
	rs.start(l)
}

func (rs *restartableShard) url() string { return "http://" + rs.addr }

// testCluster is a 2-shard fleet (west|east split at x=50) plus a router.
type testCluster struct {
	t      *testing.T
	shards []*restartableShard
	router *Router
	front  *httptest.Server
}

func shardConfig(i int) server.Config {
	return server.Config{
		Grid:      geo.Grid{Cols: 100, Rows: 50},
		Assigner:  assign.PPI{A: 1.5},
		OfferBase: OfferBase(i),
	}
}

// noSleep removes wall-clock waits from the retry schedule under test.
func noSleep(context.Context, time.Duration) error { return nil }

func newTestCluster(t *testing.T, borderKM float64, queueLimit int) *testCluster {
	t.Helper()
	return newTestClusterClient(t, borderKM, queueLimit, &http.Client{Timeout: 5 * time.Second})
}

// newTestClusterClient is newTestCluster with the router's shard calls and
// probes going through hc.
func newTestClusterClient(t *testing.T, borderKM float64, queueLimit int, hc *http.Client) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	for i := 0; i < 2; i++ {
		tc.shards = append(tc.shards, newRestartableShard(t, shardConfig(i)))
	}
	m, err := NewMap(MapConfig{
		Grid:     geo.Grid{Cols: 100, Rows: 50},
		BorderKM: borderKM,
		Shards: []ShardDef{
			{Name: "west", URL: tc.shards[0].url(), XMin: 0, XMax: 50},
			{Name: "east", URL: tc.shards[1].url(), XMin: 50, XMax: 100},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(Config{
		Map:              m,
		Retry:            par.RetryConfig{Attempts: 3, BaseDelay: time.Millisecond, Sleep: noSleep},
		AttemptTimeout:   2 * time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
		QueueLimit:       queueLimit,
		HTTPClient:       hc,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.router = rt
	rt.ProbeOnce(context.Background())
	tc.front = httptest.NewServer(rt)
	t.Cleanup(tc.front.Close)
	return tc
}

// gauge reads one of the router's per-shard gauges off its registry: the
// series GET /metrics exports.
func (tc *testCluster) gauge(name, shard string) float64 {
	return tc.router.Registry().Gauge(name, obs.L("shard", shard)).Value()
}

// do issues a JSON request against the router front door.
func (tc *testCluster) do(method, path string, body, out any) int {
	tc.t.Helper()
	return doJSON(tc.t, tc.front.URL, method, path, body, out)
}

// doShard issues a JSON request directly against shard i, bypassing the
// router — the test's view of ground truth.
func (tc *testCluster) doShard(i int, method, path string, body, out any) int {
	tc.t.Helper()
	return doJSON(tc.t, tc.shards[i].url(), method, path, body, out)
}

func doJSON(t *testing.T, base, method, path string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, base+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

type taskView struct {
	ID       int     `json:"id"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Deadline int     `json:"deadline"`
	Status   string  `json:"status"`
	Worker   int     `json:"worker"`
}

type offerView struct {
	OfferID int `json:"offerId"`
	TaskID  int `json:"taskId"`
}

// walk reports a short straight trace through the router so the worker is
// batch-eligible on its home shard.
func (tc *testCluster) walk(worker int, x0, y float64, steps int, dx float64) {
	tc.t.Helper()
	for i := 0; i < steps; i++ {
		code := tc.do("POST", fmt.Sprintf("/api/workers/%d/location", worker),
			httpapi.LocationRequest{X: x0 + float64(i)*dx, Y: y}, nil)
		if code != http.StatusOK {
			tc.t.Fatalf("worker %d location report %d: status %d", worker, i, code)
		}
	}
}

func TestRouterInteriorFlow(t *testing.T) {
	tc := newTestCluster(t, 0, 4)

	if code := tc.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 1, DetourKM: 8, Speed: 1, MR: 0.8}, nil); code != http.StatusCreated {
		t.Fatalf("register status %d", code)
	}
	tc.walk(1, 10, 10, 6, 1)

	var task taskView
	if code := tc.do("POST", "/api/tasks", httpapi.TaskRequest{X: 18, Y: 10, Deadline: 30}, &task); code != http.StatusCreated {
		t.Fatalf("post task status %d", code)
	}

	// Interior task: on the west shard, absent from the east shard.
	if code := tc.doShard(0, "GET", fmt.Sprintf("/api/tasks/%d", task.ID), nil, nil); code != http.StatusOK {
		t.Fatalf("west shard should hold task %d: status %d", task.ID, code)
	}
	if code := tc.doShard(1, "GET", fmt.Sprintf("/api/tasks/%d", task.ID), nil, nil); code != http.StatusNotFound {
		t.Fatalf("east shard should not hold interior west task: status %d", code)
	}

	var batch httpapi.BatchResponse
	if code := tc.do("POST", "/api/batch", nil, &batch); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if batch.Offers != 1 {
		t.Fatalf("batch offers = %d, want 1", batch.Offers)
	}

	var offers []offerView
	tc.do("GET", "/api/workers/1/offers", nil, &offers)
	if len(offers) != 1 {
		t.Fatalf("offers = %+v", offers)
	}
	// The offer ID is in the west shard's range, so the router can route
	// the decision without any table.
	if got := ShardOfOffer(offers[0].OfferID, 2); got != 0 {
		t.Fatalf("offer %d maps to shard %d, want 0", offers[0].OfferID, got)
	}
	if code := tc.do("POST", fmt.Sprintf("/api/offers/%d/accept", offers[0].OfferID), nil, nil); code != http.StatusOK {
		t.Fatalf("accept status %d", code)
	}
	var got taskView
	tc.do("GET", fmt.Sprintf("/api/tasks/%d", task.ID), nil, &got)
	if got.Status != string(core.StatusAccepted) || got.Worker != 1 {
		t.Fatalf("task after accept = %+v", got)
	}

	// Aggregated listing sees the task once.
	var all []taskView
	tc.do("GET", "/api/tasks", nil, &all)
	if len(all) != 1 || all[0].ID != task.ID {
		t.Fatalf("GET /api/tasks = %+v", all)
	}
}

// TestRouterTaskIDLimit: the router answers 400 to a caller-chosen task id
// at or above 2^53 without touching its allocator, and 409 to an id-less
// submit once its next id has reached the limit.
func TestRouterTaskIDLimit(t *testing.T) {
	// idLimit is the 2^53 task id limit where an int reaches it.
	const idLimit = min(1<<53, math.MaxInt)
	if idLimit < 1<<53 {
		t.Skip("a 32-bit int cannot reach the 2^53 task id limit")
	}
	tc := newTestCluster(t, 0, 4)
	for _, id := range []int{idLimit, math.MaxInt} {
		if code := tc.do("POST", "/api/tasks", httpapi.TaskRequest{ID: id, X: 18, Y: 10, Deadline: 30}, nil); code != http.StatusBadRequest {
			t.Errorf("task id %d: status %d, want 400", id, code)
		}
	}
	var task taskView
	if code := tc.do("POST", "/api/tasks", httpapi.TaskRequest{X: 18, Y: 10, Deadline: 30}, &task); code != http.StatusCreated || task.ID != 1 {
		t.Fatalf("id-less submit after refused ids: status %d, task %+v", code, task)
	}
	if code := tc.do("POST", "/api/tasks", httpapi.TaskRequest{ID: idLimit - 1, X: 18, Y: 10, Deadline: 30}, nil); code != http.StatusCreated {
		t.Fatalf("task id 2^53-1: status %d, want 201", code)
	}
	if code := tc.do("POST", "/api/tasks", httpapi.TaskRequest{X: 18, Y: 10, Deadline: 30}, nil); code != http.StatusConflict {
		t.Errorf("id-less submit with no id left: status %d, want 409", code)
	}
}

func TestRouterBorderFirstAcceptWins(t *testing.T) {
	tc := newTestCluster(t, 1, 4) // 1 km border: x in [45, 55) spans the cut

	for id := 1; id <= 2; id++ {
		if code := tc.do("POST", "/api/workers", httpapi.WorkerRequest{ID: id, DetourKM: 8, Speed: 1, MR: 0.8}, nil); code != http.StatusCreated {
			t.Fatalf("register worker %d: status %d", id, code)
		}
	}
	tc.walk(1, 41, 25, 6, 1)  // worker 1 ends at x=46 → home west
	tc.walk(2, 56, 25, 6, -1) // worker 2 ends at x=51 → home east

	var task taskView
	if code := tc.do("POST", "/api/tasks", httpapi.TaskRequest{X: 48, Y: 25, Deadline: 30}, &task); code != http.StatusCreated {
		t.Fatalf("post border task: status %d", code)
	}
	// The border task is live on both shards under one ID.
	for i := 0; i < 2; i++ {
		if code := tc.doShard(i, "GET", fmt.Sprintf("/api/tasks/%d", task.ID), nil, nil); code != http.StatusOK {
			t.Fatalf("shard %d should hold border task: status %d", i, code)
		}
	}
	if v := tc.router.borderC.Value(); v != 1 {
		t.Fatalf("border counter = %d, want 1", v)
	}

	var batch httpapi.BatchResponse
	tc.do("POST", "/api/batch", nil, &batch)
	if batch.Offers != 2 {
		t.Fatalf("fan-out batch offers = %d, want 2 (one per shard)", batch.Offers)
	}

	var west, east []offerView
	tc.do("GET", "/api/workers/1/offers", nil, &west)
	tc.do("GET", "/api/workers/2/offers", nil, &east)
	if len(west) != 1 || len(east) != 1 {
		t.Fatalf("offers west=%+v east=%+v", west, east)
	}
	if ShardOfOffer(west[0].OfferID, 2) != 0 || ShardOfOffer(east[0].OfferID, 2) != 1 {
		t.Fatalf("offer id ranges wrong: west=%d east=%d", west[0].OfferID, east[0].OfferID)
	}

	// Worker 2 accepts first and wins.
	if code := tc.do("POST", fmt.Sprintf("/api/offers/%d/accept", east[0].OfferID), nil, nil); code != http.StatusOK {
		t.Fatalf("first accept status %d", code)
	}
	// The west copy was retracted: cancelled on the shard, its offer gone.
	var westCopy taskView
	tc.doShard(0, "GET", fmt.Sprintf("/api/tasks/%d", task.ID), nil, &westCopy)
	if westCopy.Status != string(core.StatusCancelled) {
		t.Fatalf("losing copy status = %s, want cancelled", westCopy.Status)
	}
	// Worker 1's late accept loses cleanly: the retraction already withdrew
	// the west offer, so the shard itself reports it gone.
	if code := tc.do("POST", fmt.Sprintf("/api/offers/%d/accept", west[0].OfferID), nil, nil); code != http.StatusNotFound {
		t.Fatalf("late accept status %d, want 404 (offer retracted)", code)
	}
	var got taskView
	tc.do("GET", fmt.Sprintf("/api/tasks/%d", task.ID), nil, &got)
	if got.Status != string(core.StatusAccepted) || got.Worker != 2 {
		t.Fatalf("task after race = %+v", got)
	}
	if v := tc.router.reconcilesC.Value(); v < 1 {
		t.Fatalf("reconcile counter = %d, want ≥ 1", v)
	}
}

func TestRouterQueueShedAndFlush(t *testing.T) {
	tc := newTestCluster(t, 0, 2)
	if v := tc.gauge("tamp_router_shard_ready", "west"); v != 1 {
		t.Fatalf("west shard_ready = %v before the outage, want 1", v)
	}

	tc.shards[0].kill()
	tc.router.ProbeOnce(context.Background())
	if v := tc.gauge("tamp_router_shard_ready", "west"); v != 0 {
		t.Fatalf("west shard_ready = %v after kill and probe, want 0", v)
	}

	// Interior west tasks queue up to the limit, then shed with Retry-After.
	var first, second map[string]any
	if code := tc.do("POST", "/api/tasks", httpapi.TaskRequest{X: 10, Y: 10, Deadline: 30}, &first); code != http.StatusAccepted {
		t.Fatalf("first task during outage: status %d, want 202", code)
	}
	if first["status"] != "queued" {
		t.Fatalf("first task response = %v", first)
	}
	if code := tc.do("POST", "/api/tasks", httpapi.TaskRequest{X: 11, Y: 10, Deadline: 30}, &second); code != http.StatusAccepted {
		t.Fatalf("second task during outage: status %d, want 202", code)
	}

	req, _ := http.NewRequest("POST", tc.front.URL+"/api/tasks",
		bytes.NewReader([]byte(`{"x":12,"y":10,"deadline":30}`)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-limit task: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if v := tc.router.shedsC.Value(); v != 1 {
		t.Fatalf("sheds = %d, want 1", v)
	}
	if v := tc.router.queuedC.Value(); v != 2 {
		t.Fatalf("queued = %d, want 2", v)
	}
	if v := tc.gauge("tamp_router_queue_depth", "west"); v != 2 {
		t.Fatalf("west queue depth during the outage = %v, want 2", v)
	}

	// East traffic is untouched by the west outage.
	if code := tc.do("POST", "/api/tasks", httpapi.TaskRequest{X: 80, Y: 10, Deadline: 30}, nil); code != http.StatusCreated {
		t.Fatalf("east task during west outage: status %d", code)
	}

	// The shard returns; the next probe re-admits it and flushes the queue.
	tc.shards[0].restart()
	tc.router.ProbeOnce(context.Background())

	id1 := int(first["id"].(float64))
	var got taskView
	if code := tc.do("GET", fmt.Sprintf("/api/tasks/%d", id1), nil, &got); code != http.StatusOK {
		t.Fatalf("queued task after flush: status %d", code)
	}
	if got.Status != string(core.StatusOpen) {
		t.Fatalf("flushed task status = %s", got.Status)
	}
	if v := tc.gauge("tamp_router_queue_depth", "west"); v != 0 {
		t.Fatalf("west queue depth after flush = %v, want 0", v)
	}
	if v := tc.gauge("tamp_router_shard_ready", "west"); v != 1 {
		t.Fatalf("west shard_ready = %v after restart and probe, want 1", v)
	}
}

func TestRouterBorderFailover(t *testing.T) {
	tc := newTestCluster(t, 1, 2)

	tc.shards[0].kill()
	tc.router.ProbeOnce(context.Background())

	// A border task whose home (west) is down fails over to east instead of
	// queueing: a neighbor that can serve it is better than a buffer.
	var task taskView
	if code := tc.do("POST", "/api/tasks", httpapi.TaskRequest{X: 48, Y: 25, Deadline: 30}, &task); code != http.StatusCreated {
		t.Fatalf("border task during west outage: status %d, want 201", code)
	}
	if code := tc.doShard(1, "GET", fmt.Sprintf("/api/tasks/%d", task.ID), nil, nil); code != http.StatusOK {
		t.Fatalf("east shard should hold the failed-over task: status %d", code)
	}
	if v := tc.router.failoversC.Value(); v != 1 {
		t.Fatalf("failovers = %d, want 1", v)
	}

	// An interior west task still queues — no neighbor can serve it.
	if code := tc.do("POST", "/api/tasks", httpapi.TaskRequest{X: 10, Y: 25, Deadline: 30}, nil); code != http.StatusAccepted {
		t.Fatalf("interior task during outage: status %d, want 202", code)
	}
}

// TestRouterClosedShardTripsBreaker is the shutdown-robustness check from
// the shard's side: a server that was Close()d keeps answering probes (503)
// instead of hanging, so the router's breaker opens and traffic degrades
// fast rather than waiting out timeouts.
func TestRouterClosedShardTripsBreaker(t *testing.T) {
	tc := newTestCluster(t, 0, -1) // queueing disabled: outage traffic sheds

	// Close the server object but keep its listener serving: every /api call
	// now answers 503 "not ready", the readiness probe fails, but nothing
	// blocks.
	if err := tc.shards[0].srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Without a fresh probe the router still believes the shard is up; the
	// first request's retries must trip the breaker, not hang.
	start := time.Now()
	code := tc.do("POST", "/api/tasks", httpapi.TaskRequest{X: 10, Y: 10, Deadline: 30}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("task against closed shard: status %d, want 503", code)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("request against closed shard took %v — the tier hung instead of degrading", elapsed)
	}
	if got := tc.router.shards[0].breaker.State(); got != BreakerOpen {
		t.Fatalf("breaker state = %v, want open after retries exhausted", got)
	}
	// The next request fails fast on the open breaker: no network attempts.
	start = time.Now()
	if code := tc.do("POST", "/api/tasks", httpapi.TaskRequest{X: 10, Y: 10, Deadline: 30}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("second task: status %d, want 503", code)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("breaker-open request took %v, want immediate", elapsed)
	}

	// A probe pass marks the shard unready; /readyz on the router reflects
	// the east shard still being up.
	tc.router.ProbeOnce(context.Background())
	if tc.router.shards[0].ready.Load() {
		t.Fatal("closed shard still marked ready after probe")
	}
	if code := tc.do("GET", "/readyz", nil, nil); code != http.StatusOK {
		t.Fatalf("router readyz = %d, want 200 (east is up)", code)
	}
}

func TestRouterRejectsUnknownOfferRange(t *testing.T) {
	tc := newTestCluster(t, 0, 0)
	if code := tc.do("POST", "/api/offers/7/accept", nil, nil); code != http.StatusNotFound {
		t.Fatalf("offer outside every shard range: status %d, want 404", code)
	}
	if code := tc.do("GET", "/api/offers/999999999999/", nil, nil); code != http.StatusNotFound {
		t.Fatalf("offer beyond fleet: status %d, want 404", code)
	}
}

func TestRouterHealthAndMetricsEndpoints(t *testing.T) {
	tc := newTestCluster(t, 0, 0)
	if code := tc.do("GET", "/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code := tc.do("GET", "/readyz", nil, nil); code != http.StatusOK {
		t.Fatalf("readyz = %d", code)
	}
	resp, err := http.Get(tc.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus export = %d", resp.StatusCode)
	}
	for _, shard := range []string{"west", "east"} {
		for _, want := range []string{
			fmt.Sprintf(`tamp_router_shard_ready{shard=%q} 1`, shard),
			fmt.Sprintf(`tamp_router_breaker_state{shard=%q} %d`, shard, BreakerClosed),
			fmt.Sprintf(`tamp_router_queue_depth{shard=%q} 0`, shard),
		} {
			if !bytes.Contains(body, []byte(want)) {
				t.Errorf("/metrics missing %q\nbody:\n%s", want, body)
			}
		}
	}
}

// TestRouterCapsRequestBodies: the router refuses a body over
// httpapi.MaxBodyBytes instead of buffering it, forwards nothing to any
// shard, and keeps serving ordinary requests.
func TestRouterCapsRequestBodies(t *testing.T) {
	tc := newTestCluster(t, 0, 4)
	// A well-formed task whose padding alone is 2 MiB: without the cap the
	// router decodes it and places the task.
	huge := fmt.Sprintf(`{"x":10,"y":10,"deadline":30,"pad":%q}`, strings.Repeat("x", 2<<20))
	rec := httptest.NewRecorder()
	tc.router.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/tasks", strings.NewReader(huge)))
	if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB task submit: status %d, want 400 or 413", rec.Code)
	}
	for i := range tc.shards {
		var tasks []httpapi.TaskResponse
		tc.doShard(i, "GET", "/api/tasks", nil, &tasks)
		if len(tasks) != 0 {
			t.Fatalf("shard %d received the oversized task: %+v", i, tasks)
		}
	}
	if code := tc.do("POST", "/api/tasks", httpapi.TaskRequest{X: 10, Y: 10, Deadline: 30}, nil); code != http.StatusCreated {
		t.Fatalf("ordinary submit after the oversized one: status %d", code)
	}
}

// loseDeletes is a transport that loses every DELETE sent to the host it
// holds: the request never reaches that shard and the router sees a network
// error.
type loseDeletes struct{ host atomic.Pointer[string] }

func (l *loseDeletes) RoundTrip(req *http.Request) (*http.Response, error) {
	if h := l.host.Load(); h != nil && req.Method == http.MethodDelete && req.URL.Host == *h {
		return nil, errors.New("lost")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestRouterCancelledBorderTaskCannotBeAccepted: a border task cancelled
// through the router while its ghost copy could not be reached stays
// cancelled. The ghost shard still offers its copy at the next batch, and
// the router answers that accept 409 and retracts the copy.
func TestRouterCancelledBorderTaskCannotBeAccepted(t *testing.T) {
	lose := &loseDeletes{}
	tc := newTestClusterClient(t, 1, 4, &http.Client{Timeout: 5 * time.Second, Transport: lose})
	if code := tc.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 2, DetourKM: 8, Speed: 1, MR: 0.8}, nil); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	tc.walk(2, 56, 25, 6, -1) // ends at x=51 → home east
	var task taskView
	if code := tc.do("POST", "/api/tasks", httpapi.TaskRequest{X: 48, Y: 25, Deadline: 30}, &task); code != http.StatusCreated {
		t.Fatalf("post border task: status %d", code)
	}

	east := strings.TrimPrefix(tc.shards[1].url(), "http://")
	lose.host.Store(&east)
	if code := tc.do("DELETE", fmt.Sprintf("/api/tasks/%d", task.ID), nil, nil); code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	lose.host.Store(nil)
	tc.router.ProbeOnce(context.Background()) // closes the breaker the lost DELETEs opened

	var batch httpapi.BatchResponse
	tc.do("POST", "/api/batch", nil, &batch)
	var offers []offerView
	tc.do("GET", "/api/workers/2/offers", nil, &offers)
	if len(offers) != 1 || offers[0].TaskID != task.ID {
		t.Fatalf("east offers after the lost cancel = %+v, want the ghost copy of task %d", offers, task.ID)
	}
	if code := tc.do("POST", fmt.Sprintf("/api/offers/%d/accept", offers[0].OfferID), nil, nil); code != http.StatusConflict {
		t.Fatalf("accept of a cancelled task's ghost copy: status %d, want 409", code)
	}
	var ghost taskView
	tc.doShard(1, "GET", fmt.Sprintf("/api/tasks/%d", task.ID), nil, &ghost)
	if ghost.Status != string(core.StatusCancelled) {
		t.Fatalf("ghost copy after the refused accept = %s, want cancelled", ghost.Status)
	}
	if v := tc.router.reconcilesC.Value(); v != 1 {
		t.Fatalf("reconcile counter = %d, want 1", v)
	}
}

// TestRouterQueuedTaskRefusedOnFlushIsDropped: a task queued while its home
// shard was down and refused by that shard on flush is counted in
// tamp_router_queue_dropped_total and forgotten, not kept as a placement
// the shard never took.
func TestRouterQueuedTaskRefusedOnFlushIsDropped(t *testing.T) {
	tc := newTestCluster(t, 0, 2)
	tc.shards[0].kill()
	tc.router.ProbeOnce(context.Background())

	var queued map[string]any
	if code := tc.do("POST", "/api/tasks", httpapi.TaskRequest{X: 10, Y: 10, Deadline: 0}, &queued); code != http.StatusAccepted {
		t.Fatalf("task during outage: status %d, want 202", code)
	}
	id := int(queued["id"].(float64))

	tc.shards[0].restart()
	tc.router.ProbeOnce(context.Background()) // the shard answers the flush 400: deadline 0 is not after tick 0
	dropped := tc.router.Registry().Counter("tamp_router_queue_dropped_total", obs.L("shard", "west"))
	if v := dropped.Value(); v != 1 {
		t.Fatalf("queue_dropped_total{west} = %d, want 1", v)
	}
	if rec := tc.router.lookupTask(id); rec != nil {
		t.Fatalf("router still places task %d after the shard refused it: %+v", id, rec)
	}
	if code := tc.do("GET", fmt.Sprintf("/api/tasks/%d", id), nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET of the dropped task: status %d, want 404", code)
	}
}

// TestRouterCancelAfterGhostAcceptIsRefused: a cancel goes where a read
// goes. Once the ghost copy of a border task is accepted, the home copy is
// only the retracted loser, and a cancel through the router answers the
// winner's 409 instead of cancelling the loser again and answering 200.
func TestRouterCancelAfterGhostAcceptIsRefused(t *testing.T) {
	tc := newTestCluster(t, 1, 4)
	if code := tc.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 2, DetourKM: 8, Speed: 1, MR: 0.8}, nil); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	tc.walk(2, 56, 25, 6, -1) // ends at x=51 → home east
	var task taskView
	if code := tc.do("POST", "/api/tasks", httpapi.TaskRequest{X: 48, Y: 25, Deadline: 30}, &task); code != http.StatusCreated {
		t.Fatalf("post border task: status %d", code)
	}
	tc.do("POST", "/api/batch", nil, nil)
	var offers []offerView
	tc.do("GET", "/api/workers/2/offers", nil, &offers)
	if len(offers) != 1 {
		t.Fatalf("east offers = %+v", offers)
	}
	if code := tc.do("POST", fmt.Sprintf("/api/offers/%d/accept", offers[0].OfferID), nil, nil); code != http.StatusOK {
		t.Fatalf("accept of the ghost copy: status %d", code)
	}
	if code := tc.do("DELETE", fmt.Sprintf("/api/tasks/%d", task.ID), nil, nil); code != http.StatusConflict {
		t.Fatalf("cancel of a task accepted on its ghost shard: status %d, want 409", code)
	}
	var got taskView
	tc.do("GET", fmt.Sprintf("/api/tasks/%d", task.ID), nil, &got)
	if got.Status != string(core.StatusAccepted) || got.Worker != 2 {
		t.Fatalf("task after the refused cancel = %+v, want accepted by worker 2", got)
	}
}
