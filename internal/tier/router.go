package tier

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/httpapi"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/par"
)

// Config parameterizes the Router.
type Config struct {
	// Map is the validated shard map (required).
	Map *ShardMap
	// Retry is the per-request backoff schedule for shard calls; the router
	// stamps a deterministic jitter key per (shard, route) on top. The zero
	// value gives 3 attempts from 10ms.
	Retry par.RetryConfig
	// AttemptTimeout bounds each individual shard call attempt (default 2s).
	AttemptTimeout time.Duration
	// BreakerThreshold consecutive transient failures open a shard's
	// circuit breaker (default 3); BreakerCooldown later it goes half-open.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ProbeInterval is the health-prober cadence (default 250ms). A shard
	// is only routable while its latest /readyz probe succeeded.
	ProbeInterval time.Duration
	// QueueLimit bounds the per-shard buffer of interior task submissions
	// accepted (202) while the shard is down, flushed on readmission.
	// Default 256; negative disables queueing so everything sheds.
	QueueLimit int
	// RetryAfter is the Retry-After hint stamped on 503 sheds (default 1s).
	RetryAfter time.Duration
	// Registry receives the router metrics; nil gets a private registry.
	Registry *obs.Registry
	// HTTPClient overrides the transport used for shard calls and probes
	// (tests inject short timeouts); nil uses a default client.
	HTTPClient *http.Client
}

// Router is the serving tier's front door: it terminates the same HTTP API
// the shards speak and routes every call to the shard(s) owning the
// locations involved. It holds only soft state — task→shard placement,
// worker homes, and the border-reconciliation table — so a restarted router
// re-learns the world from the shard map file and the shards themselves.
type Router struct {
	cfg    Config
	reg    *obs.Registry
	shards []*shardState
	h      http.Handler // the routes behind the shared shell

	mu       sync.Mutex
	nextTask int
	tasks    map[int]*routedTask
	workers  map[int]*routedWorker

	shedsC      *obs.Counter // tamp_router_sheds_total
	failoversC  *obs.Counter // tamp_router_failovers_total
	reconcilesC *obs.Counter // tamp_router_border_reconciled_total
	borderC     *obs.Counter // tamp_router_border_tasks_total
	queuedC     *obs.Counter // tamp_router_queued_total
	routeSec    *obs.Histogram
}

// shardState is the router's view of one shard.
type shardState struct {
	idx     int
	def     ShardDef
	client  *Client
	breaker *Breaker
	ready   atomic.Bool // latest /readyz probe verdict
	readyG  *obs.Gauge  // tamp_router_shard_ready{shard}: ready as 1 or 0

	queueMu sync.Mutex
	queue   []queuedTask
	depth   *obs.Gauge // tamp_router_queue_depth{shard}
}

type queuedTask struct {
	id  int
	req httpapi.TaskRequest
}

// routable reports whether the router may send ordinary traffic to the
// shard: the last readiness probe passed and the breaker is not open.
func (ss *shardState) routable() bool {
	return ss.ready.Load() && ss.breaker.State() != BreakerOpen
}

// routedTask is the router's placement record for one task.
type routedTask struct {
	mu    sync.Mutex
	home  int  // shard index of the authoritative copy
	ghost int  // neighbor shard holding the border duplicate; -1 = interior
	won   int  // shard whose worker accepted first; -1 = still open
	dead  bool // cancelled via the router
}

// routedWorker pins a worker to the shard of its first location report and
// remembers its registration so late-recovering shards can be backfilled.
type routedWorker struct {
	mu         sync.Mutex
	home       int // -1 until the first location report
	reg        httpapi.WorkerRequest
	registered []bool // per shard
}

// NewRouter builds a Router over the shard map.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.Map == nil || cfg.Map.NumShards() == 0 {
		return nil, fmt.Errorf("tier: router needs a shard map")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = 256
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	rt := &Router{
		cfg: cfg, reg: reg,
		nextTask: 1,
		tasks:    map[int]*routedTask{},
		workers:  map[int]*routedWorker{},

		shedsC:      reg.Counter("tamp_router_sheds_total"),
		failoversC:  reg.Counter("tamp_router_failovers_total"),
		reconcilesC: reg.Counter("tamp_router_border_reconciled_total"),
		borderC:     reg.Counter("tamp_router_border_tasks_total"),
		queuedC:     reg.Counter("tamp_router_queued_total"),
		routeSec:    reg.Histogram("tamp_router_request_seconds", obs.DefRequestBuckets),
	}
	retriesTotal := reg.Counter("tamp_router_retries_total")
	for i, def := range cfg.Map.Shards {
		br := NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown,
			reg.Gauge("tamp_router_breaker_state", obs.L("shard", def.Name)))
		ss := &shardState{
			idx: i, def: def, breaker: br,
			client: NewClient(def.Name, def.URL, hc, br, cfg.Retry, cfg.AttemptTimeout, retriesTotal),
			depth:  reg.Gauge("tamp_router_queue_depth", obs.L("shard", def.Name)),
			readyG: reg.Gauge("tamp_router_shard_ready", obs.L("shard", def.Name)),
		}
		rt.shards = append(rt.shards, ss)
	}
	rt.routes()
	return rt, nil
}

// Registry exposes the router's metric registry.
func (rt *Router) Registry() *obs.Registry { return rt.reg }

func (rt *Router) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/tasks", rt.handleTasks)
	mux.HandleFunc("/api/tasks/", rt.handleTaskByID)
	mux.HandleFunc("/api/workers", rt.handleWorkers)
	mux.HandleFunc("/api/workers/", rt.handleWorkerByID)
	mux.HandleFunc("/api/offers/", rt.handleOfferByID)
	mux.HandleFunc("/api/tick", rt.handleFanout)
	mux.HandleFunc("/api/batch", rt.handleFanout)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		for _, ss := range rt.shards {
			if ss.routable() {
				httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
				return
			}
		}
		httpapi.Error(w, http.StatusServiceUnavailable, "no routable shard")
	})
	mux.Handle("/metrics", rt.reg.Handler())
	rt.h = httpapi.Harden("tier", mux, httpapi.MaxBodyBytes, nil)
}

// ServeHTTP implements http.Handler: every request runs behind the shell
// the shards use (httpapi.Harden: request bodies capped at
// httpapi.MaxBodyBytes, a recovered panic answered 500) and is timed into
// tamp_router_request_seconds.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.h.ServeHTTP(w, r)
	rt.routeSec.Observe(time.Since(start).Seconds())
}

// Run starts the health probers and blocks until ctx is done. Tests drive
// ProbeOnce directly instead for determinism.
func (rt *Router) Run(ctx context.Context) {
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		rt.ProbeOnce(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// ProbeOnce probes every shard's /readyz once and updates routability. A
// passing probe counts as the half-open trial success that closes an open
// breaker, re-admitting a recovered shard; it also flushes the shard's
// queued interior tasks. Safe to call concurrently with request traffic.
func (rt *Router) ProbeOnce(ctx context.Context) {
	for _, ss := range rt.shards {
		ss := ss
		up := rt.probeShard(ctx, ss)
		wasReady := ss.ready.Swap(up)
		if up {
			ss.readyG.Set(1)
			// The shard answered readyz: whatever the breaker thought, the
			// shard is demonstrably serving again.
			ss.breaker.Success()
			if !wasReady {
				log.Printf("tier: shard %s admitted (readyz ok)", ss.def.Name)
			}
			rt.flushQueue(ctx, ss)
		} else {
			ss.readyG.Set(0)
			if wasReady {
				log.Printf("tier: shard %s removed from rotation (readyz failing)", ss.def.Name)
			}
		}
	}
}

// probeShard is a single bare GET /readyz — no retries, no breaker: the
// prober itself must see the shard exactly as it is.
func (rt *Router) probeShard(ctx context.Context, ss *shardState) bool {
	pctx, cancel := context.WithTimeout(ctx, rt.probeTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, ss.client.URL()+"/readyz", nil)
	if err != nil {
		return false
	}
	hc := rt.cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (rt *Router) probeTimeout() time.Duration {
	if rt.cfg.AttemptTimeout > 0 {
		return rt.cfg.AttemptTimeout
	}
	return 2 * time.Second
}

// flushQueue replays the interior tasks buffered while the shard was down,
// in arrival order. Tasks carry their router-allocated IDs, so a flush after
// several probe cycles is idempotent: a duplicate submit answers 409 and is
// dropped.
func (rt *Router) flushQueue(ctx context.Context, ss *shardState) {
	for {
		ss.queueMu.Lock()
		if len(ss.queue) == 0 {
			ss.queueMu.Unlock()
			return
		}
		qt := ss.queue[0]
		ss.queue = ss.queue[1:]
		ss.depth.Set(float64(len(ss.queue)))
		ss.queueMu.Unlock()
		status, _, err := ss.client.Do(ctx, http.MethodPost, "/api/tasks", qt.req)
		if err != nil {
			// Shard went away again mid-flush: put the task back in front
			// and let the next successful probe resume.
			ss.queueMu.Lock()
			ss.queue = append([]queuedTask{qt}, ss.queue...)
			ss.depth.Set(float64(len(ss.queue)))
			ss.queueMu.Unlock()
			return
		}
		if status != http.StatusCreated && status != http.StatusConflict {
			log.Printf("tier: queued task %d rejected by %s: status %d", qt.id, ss.def.Name, status)
		}
	}
}

// --- helpers ---

// passthrough copies a shard response (status + JSON body) to the client.
func passthrough(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// shed answers 503 with the Retry-After hint and counts it.
func (rt *Router) shed(w http.ResponseWriter, why string) {
	rt.shedsC.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(int((rt.cfg.RetryAfter+time.Second-1)/time.Second)))
	httpapi.Error(w, http.StatusServiceUnavailable, "%s", why)
}

// --- tasks ---

func (rt *Router) handleTasks(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		rt.submitTask(w, r)
	case http.MethodGet:
		rt.listTasks(w, r)
	default:
		httpapi.Error(w, http.StatusMethodNotAllowed, "method %s", r.Method)
	}
}

// submitTask is the heart of the tier: place the task on the shard owning
// its location, duplicate border tasks onto the neighbor, and degrade
// gracefully — failover, queue, or shed — when the home shard is down.
func (rt *Router) submitTask(w http.ResponseWriter, r *http.Request) {
	var req httpapi.TaskRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpapi.Error(w, http.StatusBadRequest, "bad json: %v", err)
		return
	}
	loc := rt.cfg.Map.Grid.Bounds().Clamp(geo.Pt(req.X, req.Y))
	span := rt.cfg.Map.Spanning(loc)
	home := span[0]
	ghost := -1
	if len(span) > 1 {
		ghost = span[1]
	}

	rt.mu.Lock()
	if req.ID > 0 {
		if _, dup := rt.tasks[req.ID]; dup {
			rt.mu.Unlock()
			httpapi.Error(w, http.StatusConflict, "task %d already exists", req.ID)
			return
		}
		if req.ID >= rt.nextTask {
			rt.nextTask = req.ID + 1
		}
	} else {
		req.ID = rt.nextTask
		rt.nextTask++
	}
	id := req.ID
	rec := &routedTask{home: home, ghost: -1, won: -1}
	rt.tasks[id] = rec
	rt.mu.Unlock()

	homeUp := rt.shards[home].routable()
	if !homeUp {
		switch {
		case ghost >= 0 && rt.shards[ghost].routable():
			// Border failover: the neighbor can plausibly serve the task, so
			// it becomes the (only) home rather than the request failing.
			rec.home, ghost = ghost, -1
			rt.failoversC.Inc()
			home = rec.home
			homeUp = true
		case rt.cfg.QueueLimit > 0:
			ss := rt.shards[home]
			ss.queueMu.Lock()
			if len(ss.queue) < rt.cfg.QueueLimit {
				ss.queue = append(ss.queue, queuedTask{id: id, req: req})
				ss.depth.Set(float64(len(ss.queue)))
				ss.queueMu.Unlock()
				rt.queuedC.Inc()
				httpapi.WriteJSON(w, http.StatusAccepted, map[string]any{"id": id, "status": "queued"})
				return
			}
			ss.queueMu.Unlock()
			fallthrough
		default:
			rt.forgetTask(id)
			rt.shed(w, fmt.Sprintf("shard %s down", rt.shards[home].def.Name))
			return
		}
	}

	status, body, err := rt.shards[home].client.Do(r.Context(), http.MethodPost, "/api/tasks", req)
	if err != nil {
		rt.forgetTask(id)
		rt.shed(w, fmt.Sprintf("shard %s down", rt.shards[home].def.Name))
		return
	}
	if status == http.StatusCreated && ghost >= 0 {
		rt.borderC.Inc()
		// Offer the border task to the neighbor too (same ID — one task, two
		// shards bidding). A failed ghost submit degrades the task to
		// interior; the home copy alone is still a correct outcome.
		if gs, _, gerr := rt.shards[ghost].client.Do(r.Context(), http.MethodPost, "/api/tasks", req); gerr == nil && gs == http.StatusCreated {
			rec.mu.Lock()
			rec.ghost = ghost
			rec.mu.Unlock()
		}
	}
	if status != http.StatusCreated {
		rt.forgetTask(id)
	}
	passthrough(w, status, body)
}

func (rt *Router) forgetTask(id int) {
	rt.mu.Lock()
	delete(rt.tasks, id)
	rt.mu.Unlock()
}

func (rt *Router) lookupTask(id int) *routedTask {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.tasks[id]
}

// listTasks fans GET /api/tasks across the routable shards and merges by
// task ID; for a border task both shards answer and the decided copy (or
// the home's) wins.
func (rt *Router) listTasks(w http.ResponseWriter, r *http.Request) {
	merged := map[int]httpapi.TaskResponse{}
	for _, ss := range rt.shards {
		if !ss.routable() {
			continue
		}
		var tasks []httpapi.TaskResponse
		if status, err := ss.client.DoJSON(r.Context(), http.MethodGet, "/api/tasks", nil, &tasks); err != nil || status != http.StatusOK {
			continue
		}
		for _, t := range tasks {
			if prev, seen := merged[t.ID]; !seen || (decided(t.Status) && !decided(prev.Status)) {
				merged[t.ID] = t
			}
		}
	}
	out := make([]httpapi.TaskResponse, 0, len(merged))
	for _, t := range merged {
		out = append(out, t)
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

// decided reports whether a task copy in this status has been offered or
// accepted — the copy a listing shows over an open one.
func decided(status string) bool { return status == "accepted" || status == "offered" }

func (rt *Router) handleTaskByID(w http.ResponseWriter, r *http.Request) {
	id, _, ok := httpapi.PathID(r.URL.Path, "/api/tasks/")
	if !ok {
		httpapi.Error(w, http.StatusBadRequest, "bad task id")
		return
	}
	rec := rt.lookupTask(id)
	if rec == nil {
		httpapi.Error(w, http.StatusNotFound, "task %d not found", id)
		return
	}
	switch r.Method {
	case http.MethodGet:
		rec.mu.Lock()
		target := rec.home
		if rec.won >= 0 {
			target = rec.won
		}
		rec.mu.Unlock()
		status, body, err := rt.shards[target].client.Do(r.Context(), http.MethodGet, r.URL.Path, nil)
		if err != nil {
			rt.shed(w, fmt.Sprintf("shard %s down", rt.shards[target].def.Name))
			return
		}
		passthrough(w, status, body)
	case http.MethodDelete:
		// Cancel every copy; the client's answer is the home shard's.
		rec.mu.Lock()
		targets := []int{rec.home}
		if rec.ghost >= 0 {
			targets = append(targets, rec.ghost)
		}
		rec.dead = true
		rec.mu.Unlock()
		var status int
		var body []byte
		var err error
		for i, t := range targets {
			s, b, e := rt.shards[t].client.Do(r.Context(), http.MethodDelete, r.URL.Path, nil)
			if i == 0 {
				status, body, err = s, b, e
			}
		}
		if err != nil {
			rt.shed(w, "home shard down")
			return
		}
		passthrough(w, status, body)
	default:
		httpapi.Error(w, http.StatusMethodNotAllowed, "method %s", r.Method)
	}
}

// --- workers ---

func (rt *Router) handleWorkers(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req httpapi.WorkerRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpapi.Error(w, http.StatusBadRequest, "bad json: %v", err)
			return
		}
		if req.ID <= 0 {
			httpapi.Error(w, http.StatusBadRequest, "worker id must be positive")
			return
		}
		rt.mu.Lock()
		if _, dup := rt.workers[req.ID]; dup {
			rt.mu.Unlock()
			httpapi.Error(w, http.StatusConflict, "worker %d already registered", req.ID)
			return
		}
		rw := &routedWorker{home: -1, reg: req, registered: make([]bool, len(rt.shards))}
		rt.workers[req.ID] = rw
		rt.mu.Unlock()

		// Register on every shard that is up — the worker's home is decided
		// by its first location report, and a shard that is down now is
		// backfilled lazily when the worker first touches it.
		var status int
		var body []byte
		ok := false
		for i, ss := range rt.shards {
			if !ss.routable() {
				continue
			}
			s, b, err := ss.client.Do(r.Context(), http.MethodPost, "/api/workers", req)
			if err != nil {
				continue
			}
			if s == http.StatusCreated || s == http.StatusConflict {
				rw.mu.Lock()
				rw.registered[i] = true
				rw.mu.Unlock()
			}
			if !ok {
				status, body, ok = s, b, true
			}
		}
		if !ok {
			rt.mu.Lock()
			delete(rt.workers, req.ID)
			rt.mu.Unlock()
			rt.shed(w, "no routable shard")
			return
		}
		passthrough(w, status, body)
	case http.MethodGet:
		rt.listWorkers(w, r)
	default:
		httpapi.Error(w, http.StatusMethodNotAllowed, "method %s", r.Method)
	}
}

// listWorkers fans GET /api/workers across the routable shards and merges
// by worker ID; the copy on the shard where the worker is online wins.
func (rt *Router) listWorkers(w http.ResponseWriter, r *http.Request) {
	merged := map[int]httpapi.WorkerResponse{}
	for _, ss := range rt.shards {
		if !ss.routable() {
			continue
		}
		var workers []httpapi.WorkerResponse
		if status, err := ss.client.DoJSON(r.Context(), http.MethodGet, "/api/workers", nil, &workers); err != nil || status != http.StatusOK {
			continue
		}
		for _, wk := range workers {
			if prev, seen := merged[wk.ID]; !seen || (wk.Online && !prev.Online) {
				merged[wk.ID] = wk
			}
		}
	}
	out := make([]httpapi.WorkerResponse, 0, len(merged))
	for _, wk := range merged {
		out = append(out, wk)
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

func (rt *Router) lookupWorker(id int) *routedWorker {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.workers[id]
}

// ensureRegistered lazily backfills the worker's registration on a shard
// that was down when the worker registered. 409 means "already there".
func (rt *Router) ensureRegistered(ctx context.Context, rw *routedWorker, shard int) error {
	rw.mu.Lock()
	already := rw.registered[shard]
	req := rw.reg
	rw.mu.Unlock()
	if already {
		return nil
	}
	status, _, err := rt.shards[shard].client.Do(ctx, http.MethodPost, "/api/workers", req)
	if err != nil {
		return err
	}
	if status == http.StatusCreated || status == http.StatusConflict {
		rw.mu.Lock()
		rw.registered[shard] = true
		rw.mu.Unlock()
		return nil
	}
	return fmt.Errorf("tier: register worker %d on shard %d: status %d", req.ID, shard, status)
}

func (rt *Router) handleWorkerByID(w http.ResponseWriter, r *http.Request) {
	id, action, ok := httpapi.PathID(r.URL.Path, "/api/workers/")
	if !ok {
		httpapi.Error(w, http.StatusBadRequest, "bad worker id")
		return
	}
	rw := rt.lookupWorker(id)
	if rw == nil {
		httpapi.Error(w, http.StatusNotFound, "worker %d not registered", id)
		return
	}
	switch {
	case r.Method == http.MethodPost && action == "location":
		var req httpapi.LocationRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpapi.Error(w, http.StatusBadRequest, "bad json: %v", err)
			return
		}
		// The first report pins the worker to the shard owning that spot;
		// the platform's mobility predictors live where the worker does.
		rw.mu.Lock()
		if rw.home < 0 {
			rw.home = rt.cfg.Map.Home(geo.Pt(req.X, req.Y))
		}
		home := rw.home
		rw.mu.Unlock()
		if !rt.shards[home].routable() {
			rt.shed(w, fmt.Sprintf("shard %s down", rt.shards[home].def.Name))
			return
		}
		if err := rt.ensureRegistered(r.Context(), rw, home); err != nil {
			rt.shed(w, fmt.Sprintf("shard %s down", rt.shards[home].def.Name))
			return
		}
		status, body, err := rt.shards[home].client.Do(r.Context(), http.MethodPost, r.URL.Path, req)
		if err != nil {
			rt.shed(w, fmt.Sprintf("shard %s down", rt.shards[home].def.Name))
			return
		}
		passthrough(w, status, body)
	case r.Method == http.MethodGet && (action == "" || action == "offers"):
		rw.mu.Lock()
		home := rw.home
		rw.mu.Unlock()
		if home < 0 {
			// Never reported: no shard owns it yet; answer what is known.
			if action == "offers" {
				httpapi.WriteJSON(w, http.StatusOK, []any{})
			} else {
				httpapi.WriteJSON(w, http.StatusOK, rw.reg)
			}
			return
		}
		if !rt.shards[home].routable() {
			rt.shed(w, fmt.Sprintf("shard %s down", rt.shards[home].def.Name))
			return
		}
		status, body, err := rt.shards[home].client.Do(r.Context(), http.MethodGet, r.URL.Path, nil)
		if err != nil {
			rt.shed(w, fmt.Sprintf("shard %s down", rt.shards[home].def.Name))
			return
		}
		passthrough(w, status, body)
	default:
		httpapi.Error(w, http.StatusMethodNotAllowed, "method %s %s", r.Method, action)
	}
}

// --- offers: first-accept-wins reconciliation ---

func (rt *Router) handleOfferByID(w http.ResponseWriter, r *http.Request) {
	id, action, ok := httpapi.PathID(r.URL.Path, "/api/offers/")
	if !ok {
		httpapi.Error(w, http.StatusBadRequest, "bad offer id")
		return
	}
	shard := ShardOfOffer(id, len(rt.shards))
	if shard < 0 {
		httpapi.Error(w, http.StatusNotFound, "offer %d outside every shard's id range", id)
		return
	}
	ss := rt.shards[shard]
	switch {
	case r.Method == http.MethodGet && action == "":
		status, body, err := ss.client.Do(r.Context(), http.MethodGet, r.URL.Path, nil)
		if err != nil {
			rt.shed(w, fmt.Sprintf("shard %s down", ss.def.Name))
			return
		}
		passthrough(w, status, body)
	case r.Method == http.MethodPost && action == "accept":
		rt.acceptOffer(w, r, ss, id)
	case r.Method == http.MethodPost && action == "reject":
		status, body, err := ss.client.Do(r.Context(), http.MethodPost, r.URL.Path, nil)
		if err != nil {
			rt.shed(w, fmt.Sprintf("shard %s down", ss.def.Name))
			return
		}
		passthrough(w, status, body)
	default:
		httpapi.Error(w, http.StatusMethodNotAllowed, "method %s %s", r.Method, action)
	}
}

// acceptOffer forwards an accept with border reconciliation: the first
// accept across the task's copies wins, and the losing copy is retracted by
// cancelling the duplicate task — TaskCancelled retracts the pending offer
// inside the same state transition, and re-cancelling is idempotent, so a
// lost retraction is safely retried at the next accept attempt.
func (rt *Router) acceptOffer(w http.ResponseWriter, r *http.Request, ss *shardState, offerID int) {
	// Learn which task the offer would commit before forwarding.
	var rec httpapi.OfferRecord
	status, err := ss.client.DoJSON(r.Context(), http.MethodGet, "/api/offers/"+strconv.Itoa(offerID), nil, &rec)
	if err != nil {
		rt.shed(w, fmt.Sprintf("shard %s down", ss.def.Name))
		return
	}
	if status != http.StatusOK {
		httpapi.Error(w, status, "offer %d not found", offerID)
		return
	}
	rtask := rt.lookupTask(rec.TaskID)
	if rtask == nil {
		// Not a router-managed task (shard driven directly): plain forward.
		s, body, err := ss.client.Do(r.Context(), http.MethodPost, r.URL.Path, nil)
		if err != nil {
			rt.shed(w, fmt.Sprintf("shard %s down", ss.def.Name))
			return
		}
		passthrough(w, s, body)
		return
	}

	rtask.mu.Lock()
	defer rtask.mu.Unlock()
	if rtask.won >= 0 && rtask.won != ss.idx {
		// The race is already decided on the other shard. Retract this
		// side's copy (idempotent: cancel of a cancelled task is a no-op
		// transition) and tell the worker the offer is gone.
		rt.retractCopy(r.Context(), ss, rec.TaskID)
		rt.reconcilesC.Inc()
		httpapi.Error(w, http.StatusConflict, "task %d already accepted on shard %s",
			rec.TaskID, rt.shards[rtask.won].def.Name)
		return
	}
	s, body, err := ss.client.Do(r.Context(), http.MethodPost, r.URL.Path, nil)
	if err != nil {
		rt.shed(w, fmt.Sprintf("shard %s down", ss.def.Name))
		return
	}
	if s == http.StatusOK {
		rtask.won = ss.idx
		// First accept wins: withdraw the duplicate from the other shard so
		// its worker pool stops bidding on a task that is already committed.
		other := -1
		if rtask.ghost >= 0 && rtask.ghost != ss.idx {
			other = rtask.ghost
		} else if rtask.ghost == ss.idx {
			other = rtask.home
		}
		if other >= 0 {
			rt.retractCopy(r.Context(), rt.shards[other], rec.TaskID)
			rt.reconcilesC.Inc()
		}
	}
	passthrough(w, s, body)
}

// retractCopy cancels a task copy on a shard, best-effort: DELETE on an
// open or offered task cancels it and retracts its offer in one transition;
// on an already-cancelled copy it is a no-op, and a failure leaves the copy
// to be retracted at the next reconciliation touch.
func (rt *Router) retractCopy(ctx context.Context, ss *shardState, taskID int) {
	status, _, err := ss.client.Do(ctx, http.MethodDelete, "/api/tasks/"+strconv.Itoa(taskID), nil)
	if err != nil {
		log.Printf("tier: retract task %d on %s: %v (will retry on next touch)", taskID, ss.def.Name, err)
		return
	}
	if status != http.StatusOK && status != http.StatusConflict && status != http.StatusNotFound {
		log.Printf("tier: retract task %d on %s: status %d", taskID, ss.def.Name, status)
	}
}

// --- fan-out: tick and batch ---

// handleFanout forwards /api/tick and /api/batch to every routable shard
// and aggregates: ticks advance everywhere (max reported), batch offers and
// open counts sum.
func (rt *Router) handleFanout(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost && !(r.Method == http.MethodGet && r.URL.Path == "/api/tick") {
		httpapi.Error(w, http.StatusMethodNotAllowed, "method %s", r.Method)
		return
	}
	var agg httpapi.BatchResponse
	any := false
	for _, ss := range rt.shards {
		if !ss.routable() {
			continue
		}
		status, body, err := ss.client.Do(r.Context(), r.Method, r.URL.Path, nil)
		if err != nil || status != http.StatusOK {
			continue
		}
		any = true
		var br httpapi.BatchResponse
		if json.Unmarshal(body, &br) == nil {
			if br.Tick > agg.Tick {
				agg.Tick = br.Tick
			}
			agg.Offers += br.Offers
			agg.Open += br.Open
		}
	}
	if !any {
		rt.shed(w, "no routable shard")
		return
	}
	if r.URL.Path == "/api/tick" {
		httpapi.WriteJSON(w, http.StatusOK, map[string]int{"tick": agg.Tick})
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, agg)
}

// ListenAndServe serves the router on addr with the probers running, until
// ctx is cancelled; then it drains in-flight requests.
func (rt *Router) ListenAndServe(ctx context.Context, addr string) error {
	go rt.Run(ctx)
	return httpapi.Serve(ctx, addr, rt)
}
