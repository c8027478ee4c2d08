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
	// Registry receives the router metrics; nil gets a private registry.
	Registry *obs.Registry
	// HTTPClient is the client of every shard call and probe (tests inject
	// short timeouts and lossy transports); nil uses a default client.
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
	depth   *obs.Gauge   // tamp_router_queue_depth{shard}
	dropped *obs.Counter // tamp_router_queue_dropped_total{shard}
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
	home  int // shard index of the authoritative copy
	ghost int // neighbor shard holding the border duplicate; -1 = interior
	won   int // shard whose worker accepted first; -1 = still open
	// dead: cancelled through the router. An accept of a copy the cancel
	// could not retract is refused 409, and the copy retracted then.
	dead bool
}

// target is the shard a read or a cancel of the task goes to: the copy
// that won, or the home copy while none has. The caller holds rec.mu.
func (rec *routedTask) target() int {
	if rec.won >= 0 {
		return rec.won
	}
	return rec.home
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
			client:  NewClient(def.Name, def.URL, hc, br, cfg.Retry, cfg.AttemptTimeout, retriesTotal),
			depth:   reg.Gauge("tamp_router_queue_depth", obs.L("shard", def.Name)),
			dropped: reg.Counter("tamp_router_queue_dropped_total", obs.L("shard", def.Name)),
			readyG:  reg.Gauge("tamp_router_shard_ready", obs.L("shard", def.Name)),
		}
		rt.shards = append(rt.shards, ss)
	}
	rt.routes()
	return rt, nil
}

// Registry exposes the router's metric registry.
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// routes states the router's API once, in the method patterns the shard
// serves: the mux answers a path no route names 404 and a wrong method 405
// with Allow.
func (rt *Router) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/tasks", rt.submitTask)
	mux.HandleFunc("GET /api/tasks", rt.listTasks)
	mux.HandleFunc("GET /api/tasks/{id}", rt.getTask)
	mux.HandleFunc("DELETE /api/tasks/{id}", rt.cancelTask)
	mux.HandleFunc("POST /api/workers", rt.registerWorker)
	mux.HandleFunc("GET /api/workers", rt.listWorkers)
	mux.HandleFunc("GET /api/workers/{id}", rt.readWorker(func(rw *routedWorker) any { return rw.reg }))
	mux.HandleFunc("POST /api/workers/{id}/location", rt.reportLocation)
	mux.HandleFunc("GET /api/workers/{id}/offers", rt.readWorker(func(*routedWorker) any { return []any{} }))
	mux.HandleFunc("GET /api/offers/{id}", rt.forwardOffer)
	mux.HandleFunc("POST /api/offers/{id}/accept", rt.acceptOffer)
	mux.HandleFunc("POST /api/offers/{id}/reject", rt.forwardOffer)
	mux.HandleFunc("POST /api/batch", rt.fanout)
	mux.HandleFunc("POST /api/tick", rt.fanout)
	mux.HandleFunc("GET /api/tick", rt.fanout)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		for _, ss := range rt.shards {
			if ss.routable() {
				httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
				return
			}
		}
		httpapi.Error(w, http.StatusServiceUnavailable, "no routable shard")
	})
	mux.Handle("GET /metrics", rt.reg.Handler())
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

// probeShard is a single bare GET /readyz on the router's own client, under
// one attempt's timeout — no retries, no breaker: the prober itself must
// see the shard exactly as it is.
func (rt *Router) probeShard(ctx context.Context, ss *shardState) bool {
	pctx, cancel := context.WithTimeout(ctx, ss.client.attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, ss.client.URL()+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := ss.client.hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// flushQueue replays the interior tasks buffered while the shard was down,
// in arrival order. Tasks carry their router-allocated IDs, so a flush after
// several probe cycles is idempotent: a duplicate submit answers 409 and is
// dropped. A task the shard refuses (its deadline passed while it waited,
// say) is counted in tamp_router_queue_dropped_total and forgotten, so the
// router keeps no placement that no shard holds.
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
			ss.dropped.Inc()
			rt.forgetTask(qt.id)
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

// shed counts a request the router cannot serve now and answers it 503.
func (rt *Router) shed(w http.ResponseWriter, why string) {
	rt.shedsC.Inc()
	httpapi.Unavailable(w, why)
}

// forward sends the request's method and path, with body (nil for none),
// to ss and passes the shard's answer through; a shard that gives no
// answer is shed. It returns the shard's status, 0 when shed.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, ss *shardState, body any) int {
	status, b, err := ss.client.Do(r.Context(), r.Method, r.URL.Path, body)
	if err != nil {
		rt.shed(w, "shard "+ss.def.Name+" down")
		return 0
	}
	passthrough(w, status, b)
	return status
}

// routed finds the route's {id} in m, one of the router's tables, under
// rt.mu; it answers 400 or 404 when it cannot.
func routed[V any](rt *Router, w http.ResponseWriter, r *http.Request, m map[int]V, notFound string) (int, V, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return httpapi.Lookup(w, r, m, notFound)
}

// gather fans the request's GET across the routable shards and answers
// their listings merged by key: a copy replaces the one kept so far when
// prefer(copy, kept) says so.
func gather[T any](rt *Router, w http.ResponseWriter, r *http.Request, key func(T) int, prefer func(copy, kept T) bool) {
	merged := map[int]T{}
	for _, ss := range rt.shards {
		if !ss.routable() {
			continue
		}
		var list []T
		if status, err := ss.client.DoJSON(r.Context(), http.MethodGet, r.URL.Path, nil, &list); err != nil || status != http.StatusOK {
			continue
		}
		for _, v := range list {
			if kept, seen := merged[key(v)]; !seen || prefer(v, kept) {
				merged[key(v)] = v
			}
		}
	}
	out := make([]T, 0, len(merged))
	for _, v := range merged {
		out = append(out, v)
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

// --- tasks ---

// submitTask is the heart of the tier: place the task on the shard owning
// its location, duplicate border tasks onto the neighbor, and degrade
// gracefully — failover, queue, or shed — when the home shard is down.
func (rt *Router) submitTask(w http.ResponseWriter, r *http.Request) {
	var req httpapi.TaskRequest
	if !httpapi.Decode(w, r, &req) {
		return
	}
	loc := rt.cfg.Map.Grid.Bounds().Clamp(geo.Pt(req.X, req.Y))
	span := rt.cfg.Map.Spanning(loc)
	home := span[0]
	ghost := -1
	if len(span) > 1 {
		ghost = span[1]
	}

	if int64(req.ID) >= httpapi.TaskIDLimit {
		httpapi.Error(w, http.StatusBadRequest, "task id %d not below %d", req.ID, httpapi.TaskIDLimit)
		return
	}
	rt.mu.Lock()
	switch {
	case req.ID > 0:
		if _, dup := rt.tasks[req.ID]; dup {
			rt.mu.Unlock()
			httpapi.Error(w, http.StatusConflict, "task %d already exists", req.ID)
			return
		}
		if req.ID >= rt.nextTask {
			rt.nextTask = req.ID + 1
		}
	case int64(rt.nextTask) >= httpapi.TaskIDLimit:
		rt.mu.Unlock()
		httpapi.Error(w, http.StatusConflict, "no task id left below %d; submit with an unused id", httpapi.TaskIDLimit)
		return
	default:
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
			rt.shed(w, "shard "+rt.shards[home].def.Name+" down")
			return
		}
	}

	status, body, err := rt.shards[home].client.Do(r.Context(), http.MethodPost, "/api/tasks", req)
	if err != nil {
		rt.forgetTask(id)
		rt.shed(w, "shard "+rt.shards[home].def.Name+" down")
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

// listTasks merges GET /api/tasks across the routable shards by task ID;
// for a border task both shards answer and the decided copy (or the
// home's) wins.
func (rt *Router) listTasks(w http.ResponseWriter, r *http.Request) {
	gather(rt, w, r, func(t httpapi.TaskResponse) int { return t.ID },
		func(t, kept httpapi.TaskResponse) bool { return decided(t.Status) && !decided(kept.Status) })
}

// decided reports whether a task copy in this status has been offered or
// accepted — the copy a listing shows over an open one.
func decided(status string) bool { return status == "accepted" || status == "offered" }

func (rt *Router) getTask(w http.ResponseWriter, r *http.Request) {
	_, rec, ok := routed(rt, w, r, rt.tasks, "task %d not found")
	if !ok {
		return
	}
	rec.mu.Lock()
	target := rec.target()
	rec.mu.Unlock()
	rt.forward(w, r, rt.shards[target], nil)
}

// cancelTask cancels the task where a read would find it, and the client's
// answer is that shard's. Once that copy is cancelled the task is dead to
// the router: the ghost copy is retracted now or, when that retraction is
// lost, at the first accept of it.
func (rt *Router) cancelTask(w http.ResponseWriter, r *http.Request) {
	id, rec, ok := routed(rt, w, r, rt.tasks, "task %d not found")
	if !ok {
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rt.forward(w, r, rt.shards[rec.target()], nil) != http.StatusOK {
		return
	}
	rec.dead = true
	if rec.ghost >= 0 {
		rt.retractCopy(r.Context(), rt.shards[rec.ghost], id)
	}
}

// --- workers ---

func (rt *Router) registerWorker(w http.ResponseWriter, r *http.Request) {
	var req httpapi.WorkerRequest
	if !httpapi.Decode(w, r, &req) {
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

	// Register on every shard that is up — the worker's home is decided by
	// its first location report, and a shard that is down now is backfilled
	// when the worker first reports there. The client's answer is the first
	// shard's.
	var status int
	var body []byte
	for i, ss := range rt.shards {
		if !ss.routable() {
			continue
		}
		if s, b, err := rt.register(r.Context(), rw, i); err == nil && status == 0 {
			status, body = s, b
		}
	}
	if status == 0 {
		rt.mu.Lock()
		delete(rt.workers, req.ID)
		rt.mu.Unlock()
		rt.shed(w, "no routable shard")
		return
	}
	passthrough(w, status, body)
}

// register puts rw's registration on shard i, unless it is known to be
// there already, and returns the shard's answer: 201, or 409 when the shard
// already has the worker. Both mean it is there now; any other answer is an
// error.
func (rt *Router) register(ctx context.Context, rw *routedWorker, i int) (int, []byte, error) {
	rw.mu.Lock()
	done, req := rw.registered[i], rw.reg
	rw.mu.Unlock()
	if done {
		return http.StatusConflict, nil, nil
	}
	status, body, err := rt.shards[i].client.Do(ctx, http.MethodPost, "/api/workers", req)
	if err != nil {
		return 0, nil, err
	}
	if status != http.StatusCreated && status != http.StatusConflict {
		return 0, nil, fmt.Errorf("tier: register worker %d on shard %s: status %d", req.ID, rt.shards[i].def.Name, status)
	}
	rw.mu.Lock()
	rw.registered[i] = true
	rw.mu.Unlock()
	return status, body, nil
}

// listWorkers merges GET /api/workers across the routable shards by worker
// ID; the copy on the shard where the worker is online wins.
func (rt *Router) listWorkers(w http.ResponseWriter, r *http.Request) {
	gather(rt, w, r, func(wk httpapi.WorkerResponse) int { return wk.ID },
		func(wk, kept httpapi.WorkerResponse) bool { return wk.Online && !kept.Online })
}

// reportLocation forwards a location report to the worker's home shard.
// The first report pins the worker to the shard owning that spot; the
// platform's mobility predictors live where the worker does.
func (rt *Router) reportLocation(w http.ResponseWriter, r *http.Request) {
	_, rw, ok := routed(rt, w, r, rt.workers, "worker %d not registered")
	if !ok {
		return
	}
	var req httpapi.LocationRequest
	if !httpapi.Decode(w, r, &req) {
		return
	}
	rw.mu.Lock()
	if rw.home < 0 {
		rw.home = rt.cfg.Map.Home(geo.Pt(req.X, req.Y))
	}
	home := rt.shards[rw.home]
	rw.mu.Unlock()
	if !home.routable() {
		rt.shed(w, "shard "+home.def.Name+" down")
		return
	}
	if _, _, err := rt.register(r.Context(), rw, home.idx); err != nil {
		rt.shed(w, "shard "+home.def.Name+" down")
		return
	}
	rt.forward(w, r, home, req)
}

// readWorker forwards a read of a worker to its home shard. A worker that
// has not reported yet has no home, and is answered unreported(rw), what
// the router knows.
func (rt *Router) readWorker(unreported func(*routedWorker) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		_, rw, ok := routed(rt, w, r, rt.workers, "worker %d not registered")
		if !ok {
			return
		}
		rw.mu.Lock()
		home := rw.home
		rw.mu.Unlock()
		if home < 0 {
			httpapi.WriteJSON(w, http.StatusOK, unreported(rw))
			return
		}
		if ss := rt.shards[home]; !ss.routable() {
			rt.shed(w, "shard "+ss.def.Name+" down")
		} else {
			rt.forward(w, r, ss, nil)
		}
	}
}

// --- offers: first-accept-wins reconciliation ---

// offerShard finds the shard that issued the route's offer from the offer
// ID alone; it answers 400 or 404 and returns nil when no shard did.
func (rt *Router) offerShard(w http.ResponseWriter, r *http.Request) (int, *shardState) {
	id, ok := httpapi.ID(w, r)
	if !ok {
		return 0, nil
	}
	shard := ShardOfOffer(id, len(rt.shards))
	if shard < 0 {
		httpapi.Error(w, http.StatusNotFound, "offer %d outside every shard's id range", id)
		return 0, nil
	}
	return id, rt.shards[shard]
}

// forwardOffer forwards a read of an offer, or a reject, to the issuing
// shard.
func (rt *Router) forwardOffer(w http.ResponseWriter, r *http.Request) {
	if _, ss := rt.offerShard(w, r); ss != nil {
		rt.forward(w, r, ss, nil)
	}
}

// acceptOffer forwards an accept with border reconciliation: the first
// accept across the task's copies wins, and the losing copy is retracted by
// cancelling the duplicate task — TaskCancelled retracts the pending offer
// inside the same state transition, and re-cancelling is idempotent, so a
// lost retraction is safely retried at the next accept attempt. An accept
// of a task cancelled through the router is refused the same way.
func (rt *Router) acceptOffer(w http.ResponseWriter, r *http.Request) {
	offerID, ss := rt.offerShard(w, r)
	if ss == nil {
		return
	}
	// Learn which task the offer would commit before forwarding.
	var rec httpapi.OfferRecord
	status, err := ss.client.DoJSON(r.Context(), http.MethodGet, "/api/offers/"+strconv.Itoa(offerID), nil, &rec)
	if err != nil {
		rt.shed(w, "shard "+ss.def.Name+" down")
		return
	}
	if status != http.StatusOK {
		httpapi.Error(w, status, "offer %d not found", offerID)
		return
	}
	rtask := rt.lookupTask(rec.TaskID)
	if rtask == nil {
		// Not a router-managed task (shard driven directly): plain forward.
		rt.forward(w, r, ss, nil)
		return
	}

	rtask.mu.Lock()
	defer rtask.mu.Unlock()
	if rtask.dead || (rtask.won >= 0 && rtask.won != ss.idx) {
		// The task is cancelled, or the race is already decided on the other
		// shard. Retract this side's copy (idempotent: cancel of a cancelled
		// task is a no-op transition) and tell the worker the offer is gone.
		rt.retractCopy(r.Context(), ss, rec.TaskID)
		rt.reconcilesC.Inc()
		if rtask.dead {
			httpapi.Error(w, http.StatusConflict, "task %d cancelled", rec.TaskID)
		} else {
			httpapi.Error(w, http.StatusConflict, "task %d already accepted on shard %s",
				rec.TaskID, rt.shards[rtask.won].def.Name)
		}
		return
	}
	if rt.forward(w, r, ss, nil) != http.StatusOK {
		return
	}
	rtask.won = ss.idx
	// First accept wins: withdraw the duplicate from the other shard so its
	// worker pool stops bidding on a task that is already committed.
	if rtask.ghost >= 0 {
		other := rtask.ghost
		if other == ss.idx {
			other = rtask.home
		}
		rt.retractCopy(r.Context(), rt.shards[other], rec.TaskID)
		rt.reconcilesC.Inc()
	}
}

// retractCopy cancels a task copy on a shard, best-effort: DELETE on an
// open or offered task cancels it and retracts its offer in one transition;
// on an already-cancelled copy it is a no-op, and a failure is logged and
// leaves the copy to be retracted at the next reconciliation touch.
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

// fanout forwards /api/tick and /api/batch to every routable shard and
// aggregates: ticks advance everywhere (max reported), batch offers and
// open counts sum.
func (rt *Router) fanout(w http.ResponseWriter, r *http.Request) {
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
