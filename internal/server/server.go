// Package server hosts the online stage of the spatial crowdsourcing
// platform over HTTP, implementing the four-party protocol of Fig. 1:
//
//  1. task requesters POST /api/tasks;
//  2. the platform runs batch assignment (POST /api/batch or the
//     background ticker) using each worker's mobility predictor;
//  3. workers GET their offers and POST accept or reject decisions;
//  4. requesters GET /api/tasks/{id} for status.
//
// Workers never upload route plans — they only report their current
// location (POST /api/workers/{id}/location), exactly as §II specifies;
// the platform forecasts their trajectories from the reported trace with
// the trained models. Rejected (task, worker) pairs are never re-offered.
//
// The HTTP layer here is a thin shell: every handler decodes its request,
// validates it against the current state, and commits typed events to the
// transport-agnostic state machine in internal/core — decode, append,
// apply, respond. When Config.WALDir is set, each event is framed into the
// write-ahead log (internal/wal) before the response is sent, so a killed
// server replays snapshot + log tail on restart and resumes with the exact
// pre-crash state, offers and counters included. The same event log drives
// offline assigner replay (internal/replay).
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/httpapi"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/wal"
)

// Config parameterizes the platform server.
type Config struct {
	Grid geo.Grid
	// Assigner runs each batch (default PPI).
	Assigner assign.Assigner
	// Models supplies per-worker predictors (nil entries degrade to
	// stand-still forecasts).
	Models map[int]*predict.WorkerModel
	// Parallelism bounds the pool used for per-batch trajectory prediction
	// and, when the default PPI assigner is constructed, its edge-building
	// pool (0 = GOMAXPROCS).
	Parallelism int
	// MaxBodyBytes caps every request body via http.MaxBytesReader
	// (default httpapi.MaxBodyBytes, 1 MiB; negative disables the cap).
	MaxBodyBytes int64
	// RequestTimeout bounds each request's handling; the request context
	// is cancelled at the deadline (default 30s; negative disables).
	RequestTimeout time.Duration
	// BatchTimeout is the per-batch assignment deadline. When the
	// configured assigner has not produced a plan by then, its (possibly
	// partial) output is discarded and the batch falls back to the cheap
	// greedy assigner — degraded mode, counted as
	// tamp_server_faults_total{kind="degraded_batch"}. Zero disables the
	// deadline.
	BatchTimeout time.Duration
	// Registry receives every server counter, batch timing, and the phase
	// spans of batches run through this server; GET /metrics exports it in
	// Prometheus text format. Nil gets a private registry per Server, so
	// two instances in one process never mix series.
	Registry *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose internals and hold connections
	// open, so deployments must opt in.
	EnablePprof bool

	// WALDir enables durability: every committed event is appended to a
	// write-ahead log in this directory before the response is sent, and
	// New replays snapshot + log tail back to the exact pre-crash state.
	// Empty runs the platform memory-only (tests, benchmarks).
	WALDir string
	// SnapshotEvery writes a state snapshot after every N applied events
	// (default 1024), bounding restart replay work. Only used with WALDir.
	SnapshotEvery int
	// WALSyncEvery fsyncs the log every N appends (default 1: an event is
	// durable before its response). Only used with WALDir.
	WALSyncEvery int
	// WALHook, when non-nil, receives the WAL's crash-point callbacks; the
	// fault-injection tests arm an internal/fault.Crasher here.
	WALHook func(point string)
	// DeferRecovery runs WAL recovery in the background instead of inside
	// New: the server binds and answers /healthz immediately, /readyz and
	// every /api route answer 503 until the replay finishes, and the router
	// tier only re-admits the shard once /readyz flips. Only used with
	// WALDir; the default (synchronous recovery) keeps New's contract that a
	// returned server is fully recovered.
	DeferRecovery bool

	// OfferBase is the smallest offer ID this instance may issue (0 keeps
	// the default dense allocation from 1). In the sharded tier every shard
	// gets a disjoint base (shard i uses (i+1)·tier.OfferStride) so a router
	// can route an offer decision to the issuing shard from the ID alone.
	OfferBase int
}

// Registration defaults for workers that register without their own detour
// budget or speed (cells per tick).
const (
	defaultDetourKM = 6
	defaultSpeed    = 3.0
)

// Server is the HTTP platform. The zero value is not usable; construct
// with New.
type Server struct {
	cfg Config
	reg *obs.Registry

	// ready gates /readyz and the /api routes: it flips true once WAL
	// recovery has completed and the batch workspace is wired, and false
	// again on Close or a failure. The router tier probes it before routing
	// traffic.
	ready atomic.Bool
	// failure records why the shard will never become ready — a failed
	// deferred recovery or a WAL append error — so /readyz can report it and
	// commitLocked refuses every later event.
	failure atomic.Pointer[string]

	mu     sync.Mutex
	st     *core.State
	closed bool     // Close ran; mutations are rejected and readyz stays 503
	log    *wal.Log // nil when WALDir is unset, after Close or after a failure

	// One long-lived assignment workspace shared by every batch (guarded by
	// s.mu like the state): the task grid, pair buffers and matcher arrays
	// persist across batches, so steady-state batches reuse them instead of
	// reallocating.
	ws *assign.Workspace
	// Long-lived forecast memo shared by every batch, same lifecycle as ws:
	// a worker whose context window hasn't changed since the last batch (the
	// common stationary case) reuses its rollout bit-identically instead of
	// re-running the model. Instrumented as predict_cache_* in reg.
	fc *predict.ForecastCache

	// Every counter lives in reg, which GET /metrics exports; commitLocked
	// mirrors the state machine's monotonic tallies into them (single code
	// path). Counter updates are atomic, so the recovery middleware can bump
	// panicsC outside s.mu.
	offersC, acceptsC, rejectsC, expiredC *obs.Counter
	batchesC                              *obs.Counter
	// degraded-mode fault counters, labelled tamp_server_faults_total{kind=...}:
	// recovered handler panics, batches that fell back to greedy after the
	// assignment deadline, and forecasts degraded to stand-still.
	panicsC, degradedC, fallbackC *obs.Counter
	batchSec                      *obs.Histogram
	// durableG is 1 while every acknowledged event is also on the write-ahead
	// log and 0 otherwise (memory-only from the start, or after an append
	// error took the shard out of service — each such error also counts in
	// walErrC), so losing durability is a visible state, not one log line.
	durableG *obs.Gauge
	walErrC  *obs.Counter

	mux *http.ServeMux
	h   http.Handler // mux behind the readiness gate, the deadline and the shell
}

// New builds a Server ready to mount on an http.Server. With Config.WALDir
// set it first recovers the previous run's state from snapshot + log tail;
// a torn log tail (crash mid-append) is repaired and logged, but a log
// whose events no longer apply cleanly is an error — serving from a state
// that silently diverged from the durable history would be worse than not
// serving.
func New(cfg Config) (*Server, error) {
	if cfg.Grid.Cols == 0 {
		cfg.Grid = geo.DefaultGrid
	}
	if cfg.Assigner == nil {
		cfg.Assigner = assign.PPI{A: predict.DefaultMatchRadius, Parallelism: cfg.Parallelism}
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = httpapi.MaxBodyBytes
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 1024
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg: cfg,
		reg: reg,
		st:  core.NewState(),
		ws:  assign.NewWorkspace(),
		fc:  predict.NewForecastCache(0),
	}
	s.fc.Instrument(reg)
	fault := func(kind string) *obs.Counter {
		return reg.Counter("tamp_server_faults_total", obs.L("kind", kind))
	}
	s.offersC = reg.Counter("tamp_server_offers_total")
	s.acceptsC = reg.Counter("tamp_server_accepts_total")
	s.rejectsC = reg.Counter("tamp_server_rejects_total")
	s.expiredC = reg.Counter("tamp_server_expired_total")
	s.batchesC = reg.Counter("tamp_server_batches_total")
	s.panicsC = fault("panic")
	s.degradedC = fault("degraded_batch")
	s.fallbackC = fault("pred_fallback")
	s.batchSec = reg.Histogram("tamp_server_batch_seconds", obs.DefSecondsBuckets)
	s.durableG = reg.Gauge("tamp_server_durable")
	s.walErrC = reg.Counter("tamp_server_wal_append_errors_total")
	s.routes()
	s.h = httpapi.Harden("server", http.HandlerFunc(s.serve), cfg.MaxBodyBytes, s.panicsC)
	switch {
	case cfg.WALDir != "" && cfg.DeferRecovery:
		// Serve /healthz (and 503 everything gated on readiness) while the
		// log replays in the background; readiness flips when it completes.
		go func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.closed {
				return
			}
			if err := s.recoverWAL(); err != nil {
				msg := "recovery failed: " + err.Error()
				s.failure.Store(&msg)
				log.Printf("server: deferred wal recovery failed, staying unready: %v", err)
				return
			}
			s.ready.Store(true)
		}()
	case cfg.WALDir != "":
		if err := s.recoverWAL(); err != nil {
			return nil, err
		}
		s.ready.Store(true)
	default:
		s.ready.Store(true)
	}
	return s, nil
}

// recoverWAL opens the write-ahead log and rebuilds the state machine from
// its newest snapshot plus the tail of events after it.
func (s *Server) recoverWAL() error {
	l, rec, err := wal.Open(s.cfg.WALDir, wal.Options{
		SyncEvery: s.cfg.WALSyncEvery,
		Registry:  s.reg,
		Hook:      s.cfg.WALHook,
	})
	if err != nil {
		return fmt.Errorf("server: open wal: %w", err)
	}
	if rec.Torn != nil {
		log.Printf("server: wal repaired after unclean shutdown: %v", rec.Torn)
	}
	st := core.NewState()
	if rec.Snapshot != nil {
		if st, err = core.DecodeSnapshot(rec.Snapshot); err != nil {
			l.Close()
			return fmt.Errorf("server: wal snapshot: %w", err)
		}
	}
	for i, p := range rec.Records {
		ev, err := core.DecodeEvent(p)
		if err != nil {
			l.Close()
			return fmt.Errorf("server: wal record %d: %w", rec.StartSeq+uint64(i), err)
		}
		if err := st.Apply(ev); err != nil {
			l.Close()
			return fmt.Errorf("server: wal record %d: %w", rec.StartSeq+uint64(i), err)
		}
	}
	s.st, s.log = st, l
	s.durableG.Set(1)
	// The obs counters start from zero on every process start; seed them
	// with the recovered tallies so /metrics continues the pre-crash series
	// instead of resetting.
	c := st.Counts
	s.offersC.Add(c.Offers)
	s.acceptsC.Add(c.Accepts)
	s.rejectsC.Add(c.Rejects)
	s.expiredC.Add(c.Expired)
	s.batchesC.Add(c.Batches)
	s.degradedC.Add(c.DegradedBatches)
	s.fallbackC.Add(c.PredFallbacks)
	if rec.Records != nil || rec.Snapshot != nil {
		log.Printf("server: recovered state at seq %d (tick %d, %d tasks, %d workers)",
			st.Applied, st.Tick, len(st.Tasks), len(st.Workers))
	}
	return nil
}

// commitLocked is the single mutation path of the server: apply the event to
// the state machine, append it to the write-ahead log, and mirror the
// state's tally deltas into the obs counters. Handlers validate against the
// state before committing, so a failed Apply is a programming error and
// panics into the recovery middleware (no partial state: Apply rejects
// atomically, and nothing is appended for the failed event).
//
// An append error takes the shard out of service rather than let it
// acknowledge writes it cannot make durable: the log is closed, so the one
// on disk stays a clean prefix of history, the shard goes unready with the
// error as the reason /readyz gives, and the error is returned — the
// caller answers 503 and acknowledges nothing. From then on every event is
// refused, from a handler or from the ticker.
func (s *Server) commitLocked(ev core.Event) error {
	if msg := s.failure.Load(); msg != nil {
		return errors.New("shard out of service: " + *msg)
	}
	before := s.st.Counts
	if err := s.st.Apply(ev); err != nil {
		panic(err)
	}
	if s.log != nil {
		b, err := core.EncodeEvent(ev)
		if err != nil {
			panic(err)
		}
		if _, err := s.log.Append(b); err != nil {
			msg := "wal append failed: " + err.Error()
			log.Printf("server: %s; shard out of service", msg)
			s.walErrC.Inc()
			s.durableG.Set(0)
			s.log.Close()
			s.log = nil
			s.failure.Store(&msg)
			s.ready.Store(false)
			return errors.New(msg)
		}
	}
	s.bumpCountersLocked(before)
	s.maybeSnapshotLocked()
	return nil
}

func (s *Server) bumpCountersLocked(before core.Counts) {
	c := s.st.Counts
	s.offersC.Add(c.Offers - before.Offers)
	s.acceptsC.Add(c.Accepts - before.Accepts)
	s.rejectsC.Add(c.Rejects - before.Rejects)
	s.expiredC.Add(c.Expired - before.Expired)
	s.batchesC.Add(c.Batches - before.Batches)
	s.degradedC.Add(c.DegradedBatches - before.DegradedBatches)
	s.fallbackC.Add(c.PredFallbacks - before.PredFallbacks)
}

func (s *Server) maybeSnapshotLocked() {
	if s.log == nil || s.st.Applied == 0 || s.st.Applied%uint64(s.cfg.SnapshotEvery) != 0 {
		return
	}
	if err := s.log.Snapshot(s.st.EncodeSnapshot(), s.st.Applied); err != nil {
		log.Printf("server: wal snapshot failed: %v", err)
	}
}

// Registry exposes the server's metric registry, e.g. for an end-of-run
// dump by the embedding process.
func (s *Server) Registry() *obs.Registry { return s.reg }

// StateDigest returns the hex SHA-256 of the state machine's canonical
// snapshot encoding — the bit-identity check used by crash-recovery tests
// and operational replay audits.
func (s *Server) StateDigest() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Digest()
}

// Close marks the server unready, then flushes and closes the write-ahead
// log (a no-op for memory-only servers). It is idempotent — a second Close
// returns nil — and safe to race an in-flight batch: Close waits for the
// batch to release the state lock before tearing the log down. The HTTP mux
// stays mounted so health probes keep answering (readyz reports 503),
// letting a router tier observe the shard as down instead of hanging.
func (s *Server) Close() error {
	s.ready.Store(false)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}

// ServeHTTP implements http.Handler. Every route runs behind the shell the
// router shares (httpapi.Harden: capped request bodies, a recovered panic
// answered 500 and counted), then the shard's own gates in serve.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.h.ServeHTTP(w, r) }

// serve gates a request on readiness, gives it a deadline, and routes it.
func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	// An unready server (WAL still replaying, or closed) refuses platform
	// traffic outright instead of serving from a half-recovered state; the
	// probe and metrics endpoints stay up so operators and the router tier
	// can watch the recovery progress.
	if !s.ready.Load() && strings.HasPrefix(r.URL.Path, "/api/") {
		httpapi.Unavailable(w, "not ready")
		return
	}
	// pprof endpoints stream for as long as the client asks (?seconds=N) and
	// the health probes must answer even when a wedged batch would blow the
	// deadline; neither gets the request timeout.
	if s.cfg.RequestTimeout > 0 && !strings.HasPrefix(r.URL.Path, "/debug/pprof/") &&
		r.URL.Path != "/healthz" && r.URL.Path != "/readyz" {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	s.mux.ServeHTTP(w, r)
}

// handleHealthz is the liveness probe: the process is up and the handler
// stack responds. It says nothing about recovery — a replaying shard is
// alive but not ready.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 only once WAL recovery has
// completed and the batch workspace is wired, 503 while recovering, after a
// failed recovery or WAL append (with the reason), and after Close. Routers
// gate (re-)admission of a shard on this endpoint.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.ready.Load() {
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	if msg := s.failure.Load(); msg != nil {
		httpapi.Error(w, http.StatusServiceUnavailable, "%s", *msg)
		return
	}
	httpapi.Unavailable(w, "not ready")
}

// routes states the shard API once: one method pattern per route, so the
// mux answers a path no route names 404 and a wrong method 405 with Allow.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /api/tasks", s.submitTask)
	s.mux.HandleFunc("GET /api/tasks", s.listTasks)
	s.mux.HandleFunc("GET /api/tasks/{id}", s.getTask)
	s.mux.HandleFunc("DELETE /api/tasks/{id}", s.cancelTask)
	s.mux.HandleFunc("POST /api/workers", s.registerWorker)
	s.mux.HandleFunc("GET /api/workers", s.listWorkers)
	s.mux.HandleFunc("GET /api/workers/{id}", s.getWorker)
	s.mux.HandleFunc("POST /api/workers/{id}/location", s.reportLocation)
	s.mux.HandleFunc("GET /api/workers/{id}/offers", s.workerOffers)
	s.mux.HandleFunc("GET /api/offers/{id}", s.getOffer)
	s.mux.HandleFunc("POST /api/offers/{id}/accept", s.decide(true))
	s.mux.HandleFunc("POST /api/offers/{id}/reject", s.decide(false))
	s.mux.HandleFunc("POST /api/batch", s.handleBatch)
	s.mux.HandleFunc("POST /api/tick", s.advanceTick)
	s.mux.HandleFunc("GET /api/tick", s.getTick)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.Handle("GET /metrics", s.reg.Handler())
	if s.cfg.EnablePprof {
		// net/http/pprof checks its own methods (symbol takes GET and POST).
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// commit commits ev under s.mu through commitLocked and answers 503 when the
// shard refuses it; it reports whether the event was committed.
func (s *Server) commit(w http.ResponseWriter, ev core.Event) bool {
	if err := s.commitLocked(ev); err != nil {
		httpapi.Unavailable(w, err.Error())
		return false
	}
	return true
}

// --- tasks ---

func (s *Server) submitTask(w http.ResponseWriter, r *http.Request) {
	var req httpapi.TaskRequest
	if !httpapi.Decode(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Deadline <= s.st.Tick {
		httpapi.Error(w, http.StatusBadRequest, "deadline %d not after current tick %d", req.Deadline, s.st.Tick)
		return
	}
	loc := s.cfg.Grid.Bounds().Clamp(geo.Pt(req.X, req.Y))
	id := s.st.NextTask
	switch {
	case int64(req.ID) >= httpapi.TaskIDLimit:
		httpapi.Error(w, http.StatusBadRequest, "task id %d not below %d", req.ID, httpapi.TaskIDLimit)
		return
	case req.ID > 0:
		if _, dup := s.st.Tasks[req.ID]; dup {
			httpapi.Error(w, http.StatusConflict, "task %d already exists", req.ID)
			return
		}
		id = req.ID
	case int64(id) >= httpapi.TaskIDLimit:
		httpapi.Error(w, http.StatusConflict, "no task id left below %d; submit with an unused id", httpapi.TaskIDLimit)
		return
	}
	if s.commit(w, core.TaskSubmitted{TaskID: id, X: loc.X, Y: loc.Y, Deadline: req.Deadline}) {
		httpapi.WriteJSON(w, http.StatusCreated, s.taskResponseLocked(id))
	}
}

func (s *Server) listTasks(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]httpapi.TaskResponse, 0, len(s.st.Tasks))
	for id := range s.st.Tasks {
		out = append(out, s.taskResponseLocked(id))
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) taskResponseLocked(id int) httpapi.TaskResponse {
	t := s.st.Tasks[id]
	resp := httpapi.TaskResponse{
		ID: id, X: t.Task.Loc.X, Y: t.Task.Loc.Y,
		Deadline: t.Task.Deadline, Status: string(t.Status),
	}
	switch t.Status {
	case core.StatusOffered:
		resp.Worker = t.Offered
	case core.StatusAccepted:
		resp.Worker = t.Accepted
	}
	return resp
}

func (s *Server) getTask(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, _, ok := httpapi.Lookup(w, r, s.st.Tasks, "task %d not found"); ok {
		httpapi.WriteJSON(w, http.StatusOK, s.taskResponseLocked(id))
	}
}

func (s *Server) cancelTask(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, t, ok := httpapi.Lookup(w, r, s.st.Tasks, "task %d not found")
	if !ok {
		return
	}
	if t.Status == core.StatusAccepted {
		httpapi.Error(w, http.StatusConflict, "task %d already accepted", id)
		return
	}
	// Cancelling an offered task retracts the outstanding offer too, so the
	// worker is immediately matchable again and a late accept on the dead
	// offer cannot resurrect the task.
	if s.commit(w, core.TaskCancelled{TaskID: id}) {
		httpapi.WriteJSON(w, http.StatusOK, s.taskResponseLocked(id))
	}
}

// --- workers ---

func (s *Server) registerWorker(w http.ResponseWriter, r *http.Request) {
	var req httpapi.WorkerRequest
	if !httpapi.Decode(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.ID <= 0 {
		httpapi.Error(w, http.StatusBadRequest, "worker id must be positive")
		return
	}
	if _, dup := s.st.Workers[req.ID]; dup {
		httpapi.Error(w, http.StatusConflict, "worker %d already registered", req.ID)
		return
	}
	// Defaults are resolved here, so the committed event carries the
	// effective values and replay does not depend on server config.
	detour := geo.KMToCells(defaultDetourKM)
	if req.DetourKM > 0 {
		detour = geo.KMToCells(req.DetourKM)
	}
	speed := defaultSpeed
	if req.Speed > 0 {
		speed = req.Speed
	}
	mr := 0.0
	if m := s.cfg.Models[req.ID]; m != nil {
		mr = m.MR
	}
	if req.MR > 0 {
		mr = req.MR
	}
	// A detour of 1e308 km is +Inf cells, which no event can carry.
	for _, v := range [...]float64{detour, speed, mr} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			httpapi.Error(w, http.StatusBadRequest, "worker parameters must be finite (detour %v cells, speed %v, mr %v)", detour, speed, mr)
			return
		}
	}
	if s.commit(w, core.WorkerRegistered{WorkerID: req.ID, Detour: detour, Speed: speed, MR: mr}) {
		httpapi.WriteJSON(w, http.StatusCreated, s.workerResponseLocked(s.st.Workers[req.ID]))
	}
}

func (s *Server) listWorkers(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]httpapi.WorkerResponse, 0, len(s.st.Workers))
	for _, ws := range s.st.Workers {
		out = append(out, s.workerResponseLocked(ws))
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) workerResponseLocked(ws *core.Worker) httpapi.WorkerResponse {
	return httpapi.WorkerResponse{
		ID: ws.ID, DetourKM: geo.CellsToKM(ws.Detour), Speed: ws.Speed,
		MR: ws.MR, Online: ws.Online, HasModel: s.cfg.Models[ws.ID] != nil,
	}
}

func (s *Server) getWorker(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ws, ok := httpapi.Lookup(w, r, s.st.Workers, "worker %d not registered"); ok {
		httpapi.WriteJSON(w, http.StatusOK, s.workerResponseLocked(ws))
	}
}

func (s *Server) reportLocation(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ws, ok := httpapi.Lookup(w, r, s.st.Workers, "worker %d not registered")
	if !ok {
		return
	}
	var req httpapi.LocationRequest
	if !httpapi.Decode(w, r, &req) {
		return
	}
	loc := s.cfg.Grid.Bounds().Clamp(geo.Pt(req.X, req.Y))
	if s.commit(w, core.WorkerReported{WorkerID: id, X: loc.X, Y: loc.Y}) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]int{"traceLen": len(ws.Trace)})
	}
}

func (s *Server) workerOffers(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ws, ok := httpapi.Lookup(w, r, s.st.Workers, "worker %d not registered")
	if !ok {
		return
	}
	var out []httpapi.OfferResponse
	if ws.OfferID != 0 {
		off := s.st.Offers[ws.OfferID]
		t := s.st.Tasks[off.TaskID]
		out = append(out, httpapi.OfferResponse{
			OfferID: off.ID, TaskID: off.TaskID,
			X: t.Task.Loc.X, Y: t.Task.Loc.Y, Deadline: t.Task.Deadline,
		})
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

// --- offers ---

// getOffer answers the pending offer's (task, worker) pair: the router tier
// reads it to learn which task an accept is about to commit.
func (s *Server) getOffer(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, off, ok := httpapi.Lookup(w, r, s.st.Offers, "offer %d not found"); ok {
		httpapi.WriteJSON(w, http.StatusOK, httpapi.OfferRecord{OfferID: off.ID, TaskID: off.TaskID, WorkerID: off.WorkerID})
	}
}

// decide handles a worker's accept (or reject) of the route's offer.
func (s *Server) decide(accept bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		id, off, ok := httpapi.Lookup(w, r, s.st.Offers, "offer %d not found")
		if !ok {
			return
		}
		// The offer is only actionable while its task is still in the offered
		// state: a decision racing task expiry or cancellation must not flip
		// an expired/cancelled task to accepted. The stale offer is retracted
		// (a recorded transition, so replay sees it too) and the worker
		// becomes matchable again.
		t := s.st.Tasks[off.TaskID]
		if t == nil || t.Status != core.StatusOffered || t.OfferID != id {
			if !s.commit(w, core.OfferRetracted{OfferID: id}) {
				return
			}
			if t == nil {
				httpapi.Error(w, http.StatusConflict, "offer %d is stale: task gone", id)
			} else {
				httpapi.Error(w, http.StatusConflict, "offer %d is stale: task %d is %s", id, off.TaskID, t.Status)
			}
			return
		}
		var ev core.Event = core.OfferRejected{OfferID: id}
		status := "rejected"
		if accept {
			ev, status = core.OfferAccepted{OfferID: id}, "accepted"
		}
		if s.commit(w, ev) {
			httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": status})
		}
	}
}

// --- batch loop ---

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	made, err := s.runBatchLocked(r.Context())
	if err != nil {
		httpapi.Unavailable(w, err.Error())
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, httpapi.BatchResponse{Tick: s.st.Tick, Offers: made, Open: s.st.OpenTasks()})
}

func (s *Server) advanceTick(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.commit(w, core.TickAdvanced{}) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]int{"tick": s.st.Tick})
	}
}

func (s *Server) getTick(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	tick := s.st.Tick
	s.mu.Unlock()
	httpapi.WriteJSON(w, http.StatusOK, map[string]int{"tick": tick})
}

// runBatchLocked runs the shared batch step (core.PlanBatch) with the
// configured assigner under the batch deadline, and commits the plan as one
// BatchAssigned (or DegradedBatch) event. It returns the number of offers
// made, and commitLocked's error. A cancelled ctx (e.g. the requester of
// POST /api/batch hung up) abandons the batch without committing anything.
func (s *Server) runBatchLocked(ctx context.Context) (int, error) {
	// Route the batch's phase spans (assign.ppi/stage1..3 etc.) into this
	// server's registry, reuse the server's long-lived workspace (we hold
	// s.mu, which serializes batches), and time the batch end to end — empty
	// batches included, so the histogram matches "batches the platform ran".
	ctx = obs.WithRegistry(ctx, s.reg)
	ctx = assign.WithWorkspace(ctx, s.ws)
	batchStart := time.Now()
	defer func() {
		s.batchSec.Observe(time.Since(batchStart).Seconds())
	}()
	// Offer IDs are allocated in plan order and carried inside the event —
	// the log is self-contained and replays to identical IDs. With OfferBase
	// set the allocation starts in this shard's disjoint range.
	degraded := false
	offers, fallbacks, err := core.PlanBatch(ctx, core.SelectBatch(s.st), assign.ReadsForecast(s.cfg.Assigner), s.cfg.Models, s.fc,
		s.cfg.Parallelism, max(s.st.NextOffer, s.cfg.OfferBase), func(tasks []assign.Task, workers []assign.Worker) []assign.Pair {
			var pairs []assign.Pair
			pairs, degraded = s.assignWithDeadline(ctx, tasks, workers)
			return pairs
		})
	if err != nil {
		return 0, nil // abandoned: nothing to commit
	}
	// An empty batch is still recorded, so replayed tallies agree.
	if degraded {
		err = s.commitLocked(core.DegradedBatch{Offers: offers, PredFallbacks: fallbacks})
	} else {
		err = s.commitLocked(core.BatchAssigned{Offers: offers, PredFallbacks: fallbacks})
	}
	if err != nil {
		return 0, err
	}
	return len(offers), nil
}

// assignWithDeadline runs the configured assigner under the batch deadline.
// When the deadline fires before the assigner finishes, its (possibly
// partial) plan is discarded and the batch degrades to the greedy fallback:
// a worse matching delivered on time beats a perfect one delivered late. A
// panicking assigner degrades the same way; Greedy reads Worker.Predicted,
// which a batch of an assigner that reads no forecast fills by stand-still.
func (s *Server) assignWithDeadline(ctx context.Context, tasks []assign.Task, workers []assign.Worker) (pairs []assign.Pair, degraded bool) {
	bctx := ctx
	if s.cfg.BatchTimeout > 0 {
		var cancel context.CancelFunc
		bctx, cancel = context.WithTimeout(ctx, s.cfg.BatchTimeout)
		defer cancel()
	}
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				log.Printf("server: assigner %s panicked: %v", s.cfg.Assigner.Name(), rec)
				degraded = true
			}
		}()
		pairs = assign.Do(bctx, s.cfg.Assigner, tasks, workers, s.st.Tick)
	}()
	if bctx.Err() != nil && ctx.Err() == nil {
		degraded = true // deadline hit, not a client hang-up: fall back
	}
	if degraded {
		// The request ctx, not the expired bctx, on which Greedy's kernel
		// would stop short; and a workspace of its own (§12).
		gctx := assign.WithWorkspace(ctx, assign.NewWorkspace())
		pairs = (assign.Greedy{}).Assign(gctx, tasks, workers, s.st.Tick)
	}
	return pairs, degraded
}

// AdvanceTick moves the platform clock forward one tick and expires
// overdue tasks, and returns the tick. The background ticker of
// cmd/tampserver calls this; tests and manual deployments use POST
// /api/tick. A shard out of service leaves the clock where it is.
func (s *Server) AdvanceTick() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A refused tick needs no answer here: the failure already took the
	// shard unready, and /readyz reports it.
	_ = s.commitLocked(core.TickAdvanced{})
	return s.st.Tick
}

// RunBatchContext executes one assignment batch programmatically, returning
// the number of offers made; cancelling ctx abandons the batch without
// making offers, and a shard out of service makes none.
func (s *Server) RunBatchContext(ctx context.Context) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	// As in AdvanceTick, /readyz reports a refused batch's cause.
	n, _ := s.runBatchLocked(ctx)
	return n
}

// ListenAndServe serves the platform API on addr until ctx is cancelled,
// then drains in-flight requests through http.Server.Shutdown. When tick is
// positive a background ticker advances the platform clock and runs one
// assignment batch per interval (the batch-mode loop of Fig. 1); the ticker
// stops with ctx. Request handlers inherit ctx as their base context, so
// cancelling it also cancels in-flight batch pools.
func (s *Server) ListenAndServe(ctx context.Context, addr string, tick time.Duration) error {
	if tick > 0 {
		go func() {
			t := time.NewTicker(tick)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					s.AdvanceTick()
					s.RunBatchContext(ctx)
				}
			}
		}()
	}
	return httpapi.Serve(ctx, addr, s)
}
