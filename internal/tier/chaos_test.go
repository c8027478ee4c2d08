package tier

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/fault"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/httpapi"
	"github.com/spatialcrowd/tamp/internal/par"
	"github.com/spatialcrowd/tamp/internal/server"
	"github.com/spatialcrowd/tamp/internal/wal"
)

// crash drops the shard without closing the server object — the listener
// disappears and in-flight connections die, exactly like a kill -9. WAL
// appends are fsynced before their responses (WALSyncEvery 1), so every op
// the client saw acked is on disk regardless.
func (rs *restartableShard) crash() {
	rs.ts.CloseClientConnections()
	rs.ts.Close()
}

// durableShardConfig is shardConfig plus a per-test WAL, with Parallelism 1
// so an oracle replaying the same ops computes bit-identical plans.
func durableShardConfig(t *testing.T, i int) server.Config {
	cfg := shardConfig(i)
	cfg.WALDir = t.TempDir()
	cfg.WALSyncEvery = 1
	cfg.Parallelism = 1
	return cfg
}

// TestClusterChaosFailoverDigest is the tier's headline guarantee, asserted
// end to end: kill a durable shard under traffic, let the router degrade
// (breaker opens, interior traffic sheds, the rest of the fleet keeps
// serving), bring the shard back on the same address, and the WAL-recovered
// state must be byte-identical — same SHA-256 digest — to a never-killed
// oracle fed exactly the acknowledged operations. No acked op is lost, no
// unacked op resurrects.
func TestClusterChaosFailoverDigest(t *testing.T) {
	west := newRestartableShard(t, durableShardConfig(t, 0))
	east := newRestartableShard(t, durableShardConfig(t, 1))

	// The oracle is a memory-only twin of the west shard: same grid,
	// assigner, and offer base, driven only with ops the real west acked.
	oracleCfg := shardConfig(0)
	oracleCfg.Parallelism = 1
	oracle, err := server.New(oracleCfg)
	if err != nil {
		t.Fatal(err)
	}
	ots := httptest.NewServer(oracle)
	t.Cleanup(ots.Close)
	mirror := func(method, path string, body any) {
		t.Helper()
		if code := doJSON(t, ots.URL, method, path, body, nil); code >= 300 {
			t.Fatalf("oracle diverged: %s %s -> %d (the real shard acked this op)", method, path, code)
		}
	}

	m, err := NewMap(MapConfig{
		Grid: geo.Grid{Cols: 100, Rows: 50},
		Shards: []ShardDef{
			{Name: "west", URL: west.url(), XMin: 0, XMax: 50},
			{Name: "east", URL: east.url(), XMin: 50, XMax: 100},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(Config{
		Map:              m,
		Retry:            par.RetryConfig{Attempts: 3, BaseDelay: time.Millisecond, Sleep: noSleep},
		BreakerThreshold: 3,
		BreakerCooldown:  20 * time.Millisecond,
		QueueLimit:       -1, // shed during the outage: acked == applied, cleanly mirrorable
		HTTPClient:       &http.Client{Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeOnce(context.Background())
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	do := func(method, path string, body, out any) int {
		t.Helper()
		return doJSON(t, front.URL, method, path, body, out)
	}

	// --- phase 1: normal traffic, mirrored into the oracle ---

	// Registration broadcasts to every shard, so each register is a west op.
	for id := 1; id <= 3; id++ {
		w := httpapi.WorkerRequest{ID: id, DetourKM: 8, Speed: 1, MR: 0.8}
		if code := do("POST", "/api/workers", w, nil); code != http.StatusCreated {
			t.Fatalf("register worker %d: status %d", id, code)
		}
		mirror("POST", "/api/workers", w)
	}
	// Workers 1 and 2 live west (their reports land there and get mirrored);
	// worker 3 lives east and never touches west state beyond registration.
	walkMirrored := func(worker int, x0, y float64) {
		t.Helper()
		for i := 0; i < 6; i++ {
			loc := httpapi.LocationRequest{X: x0 + float64(i), Y: y}
			path := fmt.Sprintf("/api/workers/%d/location", worker)
			if code := do("POST", path, loc, nil); code != http.StatusOK {
				t.Fatalf("worker %d report %d: status %d", worker, i, code)
			}
			mirror("POST", path, loc)
		}
	}
	walkMirrored(1, 10, 10)
	walkMirrored(2, 30, 20)
	for i := 0; i < 6; i++ {
		if code := do("POST", "/api/workers/3/location", httpapi.LocationRequest{X: 80 + float64(i), Y: 10}, nil); code != http.StatusOK {
			t.Fatalf("worker 3 report %d: status %d", i, code)
		}
	}

	submitMirrored := func(x, y float64) int {
		t.Helper()
		var task taskView
		if code := do("POST", "/api/tasks", httpapi.TaskRequest{X: x, Y: y, Deadline: 60}, &task); code != http.StatusCreated {
			t.Fatalf("task at (%g,%g): status %d", x, y, code)
		}
		// The router allocated the global ID; the oracle must reuse it so
		// both copies of the state name the task identically.
		mirror("POST", "/api/tasks", httpapi.TaskRequest{ID: task.ID, X: x, Y: y, Deadline: 60})
		return task.ID
	}
	taskA := submitMirrored(18, 10)
	if code := do("POST", "/api/tasks", httpapi.TaskRequest{X: 88, Y: 10, Deadline: 60}, nil); code != http.StatusCreated {
		t.Fatal("east task failed")
	}
	taskC := submitMirrored(33, 20)

	if code := do("POST", "/api/tick", nil, nil); code != http.StatusOK {
		t.Fatal("tick failed")
	}
	mirror("POST", "/api/tick", nil)
	var batch httpapi.BatchResponse
	if code := do("POST", "/api/batch", nil, &batch); code != http.StatusOK {
		t.Fatal("batch failed")
	}
	mirror("POST", "/api/batch", nil)
	if batch.Offers == 0 {
		t.Fatal("pre-kill batch made no offers")
	}

	var offers []offerView
	do("GET", "/api/workers/1/offers", nil, &offers)
	if len(offers) != 1 || offers[0].TaskID != taskA {
		t.Fatalf("worker 1 offers = %+v, want one for task %d", offers, taskA)
	}
	acceptPath := fmt.Sprintf("/api/offers/%d/accept", offers[0].OfferID)
	if code := do("POST", acceptPath, nil, nil); code != http.StatusOK {
		t.Fatalf("accept: status %d", code)
	}
	mirror("POST", acceptPath, nil)

	// --- phase 2: kill west, degraded service ---

	west.crash()
	rt.ProbeOnce(context.Background())
	if rt.shards[0].ready.Load() {
		t.Fatal("crashed shard still marked ready after probe")
	}

	// Interior west traffic sheds; the op is NOT acked and NOT mirrored.
	if code := do("POST", "/api/tasks", httpapi.TaskRequest{X: 12, Y: 10, Deadline: 60}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("west task during outage: status %d, want 503", code)
	}
	// The rest of the fleet keeps serving.
	if code := do("POST", "/api/tasks", httpapi.TaskRequest{X: 90, Y: 12, Deadline: 60}, nil); code != http.StatusCreated {
		t.Fatal("east task during outage failed")
	}
	if code := do("GET", "/readyz", nil, nil); code != http.StatusOK {
		t.Fatal("router readyz failed while east is up")
	}
	if code := do("POST", "/api/batch", nil, nil); code != http.StatusOK {
		t.Fatal("batch during outage failed")
	}
	if v := rt.shedsC.Value(); v == 0 {
		t.Fatal("no sheds counted during the outage")
	}

	// --- phase 3: rejoin via WAL replay, then more mirrored traffic ---

	west.restart()
	rt.ProbeOnce(context.Background())
	if !rt.shards[0].ready.Load() {
		t.Fatal("recovered shard not readmitted")
	}

	taskD := submitMirrored(14, 10)
	if code := do("POST", "/api/tick", nil, nil); code != http.StatusOK {
		t.Fatal("post-rejoin tick failed")
	}
	mirror("POST", "/api/tick", nil)
	if code := do("POST", "/api/batch", nil, nil); code != http.StatusOK {
		t.Fatal("post-rejoin batch failed")
	}
	mirror("POST", "/api/batch", nil)

	// --- the guarantee ---

	if got, want := west.srv.StateDigest(), oracle.StateDigest(); got != want {
		t.Fatalf("rejoined shard diverged from the never-killed oracle:\n got %s\nwant %s", got, want)
	}
	// Every acked op is visible through the router after the rejoin.
	var a taskView
	if code := do("GET", fmt.Sprintf("/api/tasks/%d", taskA), nil, &a); code != http.StatusOK {
		t.Fatalf("acked task %d lost: status %d", taskA, code)
	}
	if a.Status != string(core.StatusAccepted) || a.Worker != 1 {
		t.Fatalf("accepted task survived wrong: %+v", a)
	}
	for _, id := range []int{taskC, taskD} {
		if code := do("GET", fmt.Sprintf("/api/tasks/%d", id), nil, nil); code != http.StatusOK {
			t.Fatalf("acked task %d lost: status %d", id, code)
		}
	}
}

// TestShardCrashMidAppendRejoins injects a crash in the middle of a WAL
// frame write — the sharpest possible kill — and asserts the recovered
// shard serves exactly the acked prefix: the torn op is gone, everything
// before it survives, and the router readmits the shard on readiness.
func TestShardCrashMidAppendRejoins(t *testing.T) {
	cfg := durableShardConfig(t, 0)
	crasher := fault.NewCrasher(wal.HookAppendFrame, 3)
	cfg.WALHook = crasher.Hit
	shard := newRestartableShard(t, cfg)

	m, err := NewMap(MapConfig{
		Grid:   geo.Grid{Cols: 100, Rows: 50},
		Shards: []ShardDef{{Name: "solo", URL: shard.url(), XMin: 0, XMax: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(Config{
		Map:              m,
		Retry:            par.RetryConfig{Attempts: 2, BaseDelay: time.Millisecond, Sleep: noSleep},
		BreakerThreshold: 2,
		BreakerCooldown:  20 * time.Millisecond,
		QueueLimit:       -1,
		HTTPClient:       &http.Client{Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeOnce(context.Background())
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	// Two acked appends, then a digest checkpoint of "what the world saw".
	for i := 0; i < 2; i++ {
		if code := doJSON(t, front.URL, "POST", "/api/tasks", httpapi.TaskRequest{X: 10 + float64(i), Y: 10, Deadline: 60}, nil); code != http.StatusCreated {
			t.Fatalf("task %d: status %d", i, code)
		}
	}
	ackedDigest := shard.srv.StateDigest()

	// The third append crashes mid-frame, straight at the shard (one plain
	// attempt — a retry would hammer a half-dead process). The connection
	// dies or a 5xx comes back; either way the op was never acked.
	resp, err := http.Post(shard.url()+"/api/tasks", "application/json",
		strings.NewReader(`{"x":30,"y":10,"deadline":60}`))
	if err == nil {
		if resp.StatusCode < 500 {
			t.Fatalf("torn append was acked with status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if !crasher.Fired() {
		t.Fatalf("crash point never fired (hits=%d)", crasher.Hits())
	}
	shard.crash() // the panic killed the process; drop its listener too

	rt.ProbeOnce(context.Background())
	if code := doJSON(t, front.URL, "GET", "/readyz", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("router readyz with the only shard down: %d, want 503", code)
	}

	// Restart without the crasher: replay truncates the torn frame.
	shard.cfg.WALHook = nil
	shard.restart()
	rt.ProbeOnce(context.Background())

	if got := shard.srv.StateDigest(); got != ackedDigest {
		t.Fatalf("recovered digest != acked prefix:\n got %s\nwant %s", got, ackedDigest)
	}
	if code := doJSON(t, front.URL, "GET", "/api/tasks/1", nil, nil); code != http.StatusOK {
		t.Fatalf("acked task lost after crash recovery: status %d", code)
	}
	// The torn task never happened — and the ID is reusable by new traffic.
	if code := doJSON(t, shard.url(), "GET", "/api/tasks/3", nil, nil); code != http.StatusNotFound {
		t.Fatalf("torn task resurrected: status %d", code)
	}
	if code := doJSON(t, front.URL, "POST", "/api/tasks", httpapi.TaskRequest{X: 40, Y: 10, Deadline: 60}, nil); code != http.StatusCreated {
		t.Fatalf("post-recovery task via router: status %d", code)
	}
}
