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
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/wal"
)

// TaskStatus enumerates a task's lifecycle (re-exported from the state
// machine so API clients keep a stable vocabulary).
type TaskStatus = core.TaskStatus

// Task lifecycle states.
const (
	TaskOpen      = core.StatusOpen      // waiting for assignment
	TaskOffered   = core.StatusOffered   // offered to a worker, awaiting decision
	TaskAccepted  = core.StatusAccepted  // worker committed to serve it
	TaskExpired   = core.StatusExpired   // deadline passed unserved
	TaskCancelled = core.StatusCancelled // withdrawn by the requester
)

// Config parameterizes the platform server.
type Config struct {
	Grid geo.Grid
	// Assigner runs each batch (default PPI).
	Assigner assign.Assigner
	// Models supplies per-worker predictors (nil entries degrade to
	// stand-still forecasts).
	Models map[int]*predict.WorkerModel
	// PredHorizon is the forecast window per batch, in ticks (default 8).
	PredHorizon int
	// DefaultDetourKM/DefaultSpeed apply to workers that register without
	// their own values.
	DefaultDetourKM float64
	DefaultSpeed    float64
	// Parallelism bounds the pool used for per-batch trajectory prediction
	// and, when the default PPI assigner is constructed, its edge-building
	// pool (0 = GOMAXPROCS).
	Parallelism int
	// MaxBodyBytes caps every request body via http.MaxBytesReader
	// (default 1 MiB; negative disables the cap).
	MaxBodyBytes int64
	// RequestTimeout bounds each request's handling; the request context
	// is cancelled at the deadline (default 30s; negative disables).
	RequestTimeout time.Duration
	// BatchTimeout is the per-batch assignment deadline. When the
	// configured assigner has not produced a plan by then, its (possibly
	// partial) output is discarded and the batch falls back to the cheap
	// greedy assigner — degraded mode, counted in /api/metrics. Zero
	// disables the deadline.
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

// Server is the HTTP platform. The zero value is not usable; construct
// with New.
type Server struct {
	cfg Config
	reg *obs.Registry

	// ready gates /readyz and the /api routes: it flips true once WAL
	// recovery has completed and the batch workspace is wired, and false
	// again on Close. The router tier probes it before routing traffic.
	ready atomic.Bool
	// recoverErr records a failed deferred recovery so /readyz can report
	// why the shard will never become ready.
	recoverErr atomic.Pointer[string]

	mu     sync.Mutex
	st     *core.State
	closed bool     // Close ran; mutations are rejected and readyz stays 503
	log    *wal.Log // nil when WALDir is unset or after a disk failure

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

	// Every counter lives in reg; commitLocked mirrors the state machine's
	// monotonic tallies into them (single code path), and both /api/metrics
	// (JSON) and /metrics (Prometheus) read the same series. Counter
	// updates are atomic, so the recovery middleware can bump panicsC
	// outside s.mu.
	offersC, acceptsC, rejectsC, expiredC *obs.Counter
	batchesC                              *obs.Counter
	// degraded-mode fault counters, labelled tamp_server_faults_total{kind=...}:
	// recovered handler panics, batches that fell back to greedy after the
	// assignment deadline, and forecasts degraded to stand-still.
	panicsC, degradedC, fallbackC *obs.Counter
	batchSec                      *obs.Histogram
	// durableG is 1 while every acknowledged event is also on the write-ahead
	// log and 0 otherwise (memory-only from the start, or after an append
	// error dropped the log — each such error also counts in walErrC), so
	// losing durability is a visible state, not one log line.
	durableG *obs.Gauge
	walErrC  *obs.Counter

	mux *http.ServeMux
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
	if cfg.PredHorizon <= 0 {
		cfg.PredHorizon = 8
	}
	if cfg.DefaultDetourKM <= 0 {
		cfg.DefaultDetourKM = 6
	}
	if cfg.DefaultSpeed <= 0 {
		cfg.DefaultSpeed = 3
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 1 << 20
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
				msg := err.Error()
				s.recoverErr.Store(&msg)
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
	// with the recovered tallies so /api/metrics and /metrics continue the
	// pre-crash series instead of resetting.
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

// commitLocked is the single mutation path of the server: append each event
// to the write-ahead log, apply it to the state machine, and mirror the
// state's tally deltas into the obs counters. Handlers validate against the
// state before committing, so a failed Apply is a programming error and
// panics into the recovery middleware (no partial state: Apply rejects
// atomically, and nothing is appended for the failed event).
func (s *Server) commitLocked(evs ...core.Event) {
	before := s.st.Counts
	for _, ev := range evs {
		if err := s.st.Apply(ev); err != nil {
			panic(err)
		}
		if s.log != nil {
			b, err := core.EncodeEvent(ev)
			if err != nil {
				panic(err)
			}
			if _, err := s.log.Append(b); err != nil {
				// Disk trouble: keep serving memory-only rather than take the
				// platform down, but stop appending so the log on disk stays a
				// clean prefix of history instead of gaining holes.
				log.Printf("server: wal append failed, durability disabled: %v", err)
				s.walErrC.Inc()
				s.durableG.Set(0)
				s.log.Close()
				s.log = nil
			}
		}
	}
	s.bumpCountersLocked(before)
	s.maybeSnapshotLocked()
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

// Ready reports whether the server would answer /readyz with 200: WAL
// recovery has completed, the batch workspace is wired, and Close has not
// run. The router tier only routes traffic to ready shards.
func (s *Server) Ready() bool { return s.ready.Load() }

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

// headerTracker remembers whether a handler already committed the response,
// so the recovery middleware knows if a 500 can still be sent.
type headerTracker struct {
	http.ResponseWriter
	wrote bool
}

func (h *headerTracker) WriteHeader(status int) {
	h.wrote = true
	h.ResponseWriter.WriteHeader(status)
}

func (h *headerTracker) Write(b []byte) (int, error) {
	h.wrote = true
	return h.ResponseWriter.Write(b)
}

// ServeHTTP implements http.Handler. It is the hardening middleware for
// every route: request bodies are capped, each request gets a deadline, and
// a panicking handler is recovered into a 500 — one bad request never takes
// the platform down.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ht := &headerTracker{ResponseWriter: w}
	defer func() {
		if rec := recover(); rec != nil {
			s.panicsC.Inc()
			log.Printf("server: recovered panic in %s %s: %v", r.Method, r.URL.Path, rec)
			if !ht.wrote {
				httpError(ht, http.StatusInternalServerError, "internal error")
			}
		}
	}()
	if s.cfg.MaxBodyBytes > 0 && r.Body != nil {
		r.Body = http.MaxBytesReader(ht, r.Body, s.cfg.MaxBodyBytes)
	}
	// An unready server (WAL still replaying, or closed) refuses platform
	// traffic outright instead of serving from a half-recovered state; the
	// probe and metrics endpoints stay up so operators and the router tier
	// can watch the recovery progress.
	if !s.ready.Load() && strings.HasPrefix(r.URL.Path, "/api/") {
		ht.Header().Set("Retry-After", "1")
		httpError(ht, http.StatusServiceUnavailable, "not ready")
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
	s.mux.ServeHTTP(ht, r)
}

// handleHealthz is the liveness probe: the process is up and the handler
// stack responds. It says nothing about recovery — a replaying shard is
// alive but not ready.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 only once WAL recovery has
// completed and the batch workspace is wired, 503 while recovering, after a
// failed recovery (with the reason), and after Close. Routers gate
// (re-)admission of a shard on this endpoint.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.ready.Load() {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	if msg := s.recoverErr.Load(); msg != nil {
		httpError(w, http.StatusServiceUnavailable, "recovery failed: %s", *msg)
		return
	}
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable, "not ready")
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/api/tasks", s.handleTasks)
	s.mux.HandleFunc("/api/tasks/", s.handleTaskByID)
	s.mux.HandleFunc("/api/workers", s.handleWorkers)
	s.mux.HandleFunc("/api/workers/", s.handleWorkerByID)
	s.mux.HandleFunc("/api/offers/", s.handleOfferByID)
	s.mux.HandleFunc("/api/batch", s.handleBatch)
	s.mux.HandleFunc("/api/tick", s.handleTick)
	s.mux.HandleFunc("/api/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.Handle("/metrics", s.reg.Handler())
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// encodeErrOnce rate-limits encoder-failure logging: the first failure is
// worth a line (it usually means a broken client connection or an
// unmarshalable value), every subsequent one would just flood the log.
var encodeErrOnce sync.Once

// writeJSON commits headers before any body bytes — Content-Type first,
// then the status line — so handlers can never interleave a late header
// with a partial body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		encodeErrOnce.Do(func() { log.Printf("server: writeJSON: %v", err) })
	}
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// --- tasks ---

type taskRequest struct {
	// ID, when positive, is a caller-chosen task id (the router tier
	// allocates globally unique ids so a border task keeps one identity on
	// both shards it is offered to). Zero lets the server allocate.
	ID       int     `json:"id,omitempty"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Deadline int     `json:"deadline"` // absolute tick
}

type taskResponse struct {
	ID       int        `json:"id"`
	X        float64    `json:"x"`
	Y        float64    `json:"y"`
	Deadline int        `json:"deadline"`
	Status   TaskStatus `json:"status"`
	Worker   int        `json:"worker,omitempty"`
}

func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req taskRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad json: %v", err)
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if req.Deadline <= s.st.Tick {
			httpError(w, http.StatusBadRequest, "deadline %d not after current tick %d", req.Deadline, s.st.Tick)
			return
		}
		loc := s.cfg.Grid.Bounds().Clamp(geo.Pt(req.X, req.Y))
		id := s.st.NextTask
		if req.ID > 0 {
			if _, dup := s.st.Tasks[req.ID]; dup {
				httpError(w, http.StatusConflict, "task %d already exists", req.ID)
				return
			}
			id = req.ID
		}
		s.commitLocked(core.TaskSubmitted{TaskID: id, X: loc.X, Y: loc.Y, Deadline: req.Deadline})
		writeJSON(w, http.StatusCreated, s.taskResponseLocked(id))
	case http.MethodGet:
		s.mu.Lock()
		defer s.mu.Unlock()
		out := make([]taskResponse, 0, len(s.st.Tasks))
		for id := range s.st.Tasks {
			out = append(out, s.taskResponseLocked(id))
		}
		writeJSON(w, http.StatusOK, out)
	default:
		httpError(w, http.StatusMethodNotAllowed, "method %s", r.Method)
	}
}

func (s *Server) taskResponseLocked(id int) taskResponse {
	t := s.st.Tasks[id]
	resp := taskResponse{
		ID: id, X: t.Task.Loc.X, Y: t.Task.Loc.Y,
		Deadline: t.Task.Deadline, Status: t.Status,
	}
	switch t.Status {
	case TaskOffered:
		resp.Worker = t.Offered
	case TaskAccepted:
		resp.Worker = t.Accepted
	}
	return resp
}

func (s *Server) handleTaskByID(w http.ResponseWriter, r *http.Request) {
	id, ok := trailingID(r.URL.Path, "/api/tasks/")
	if !ok {
		httpError(w, http.StatusBadRequest, "bad task id")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, exists := s.st.Tasks[id]
	if !exists {
		httpError(w, http.StatusNotFound, "task %d not found", id)
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.taskResponseLocked(id))
	case http.MethodDelete:
		if t.Status == TaskAccepted {
			httpError(w, http.StatusConflict, "task %d already accepted", id)
			return
		}
		// Cancelling an offered task retracts the outstanding offer too, so
		// the worker is immediately matchable again and a late accept on
		// the dead offer cannot resurrect the task.
		s.commitLocked(core.TaskCancelled{TaskID: id})
		writeJSON(w, http.StatusOK, s.taskResponseLocked(id))
	default:
		httpError(w, http.StatusMethodNotAllowed, "method %s", r.Method)
	}
}

// --- workers ---

type workerRequest struct {
	ID       int     `json:"id"`
	DetourKM float64 `json:"detourKm"`
	Speed    float64 `json:"speed"` // cells per tick
	MR       float64 `json:"mr"`    // optional override of the model's MR
}

type workerResponse struct {
	ID       int     `json:"id"`
	DetourKM float64 `json:"detourKm"`
	Speed    float64 `json:"speed"`
	MR       float64 `json:"mr"`
	Online   bool    `json:"online"`
	HasModel bool    `json:"hasModel"`
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req workerRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad json: %v", err)
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if req.ID <= 0 {
			httpError(w, http.StatusBadRequest, "worker id must be positive")
			return
		}
		if _, dup := s.st.Workers[req.ID]; dup {
			httpError(w, http.StatusConflict, "worker %d already registered", req.ID)
			return
		}
		// Defaults are resolved here, so the committed event carries the
		// effective values and replay does not depend on server config.
		detour := geo.KMToCells(s.cfg.DefaultDetourKM)
		if req.DetourKM > 0 {
			detour = geo.KMToCells(req.DetourKM)
		}
		speed := s.cfg.DefaultSpeed
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
		s.commitLocked(core.WorkerRegistered{WorkerID: req.ID, Detour: detour, Speed: speed, MR: mr})
		writeJSON(w, http.StatusCreated, s.workerResponseLocked(s.st.Workers[req.ID]))
	case http.MethodGet:
		s.mu.Lock()
		defer s.mu.Unlock()
		out := make([]workerResponse, 0, len(s.st.Workers))
		for _, ws := range s.st.Workers {
			out = append(out, s.workerResponseLocked(ws))
		}
		writeJSON(w, http.StatusOK, out)
	default:
		httpError(w, http.StatusMethodNotAllowed, "method %s", r.Method)
	}
}

func (s *Server) workerResponseLocked(ws *core.Worker) workerResponse {
	return workerResponse{
		ID: ws.ID, DetourKM: geo.CellsToKM(ws.Detour), Speed: ws.Speed,
		MR: ws.MR, Online: ws.Online, HasModel: s.cfg.Models[ws.ID] != nil,
	}
}

type locationRequest struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type offerResponse struct {
	OfferID  int     `json:"offerId"`
	TaskID   int     `json:"taskId"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Deadline int     `json:"deadline"`
}

func (s *Server) handleWorkerByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/workers/")
	parts := strings.Split(rest, "/")
	id, err := strconv.Atoi(parts[0])
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad worker id")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ws, exists := s.st.Workers[id]
	if !exists {
		httpError(w, http.StatusNotFound, "worker %d not registered", id)
		return
	}
	action := ""
	if len(parts) > 1 {
		action = parts[1]
	}
	switch {
	case r.Method == http.MethodGet && action == "":
		writeJSON(w, http.StatusOK, s.workerResponseLocked(ws))
	case r.Method == http.MethodPost && action == "location":
		var req locationRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad json: %v", err)
			return
		}
		loc := s.cfg.Grid.Bounds().Clamp(geo.Pt(req.X, req.Y))
		s.commitLocked(core.WorkerReported{WorkerID: id, X: loc.X, Y: loc.Y})
		writeJSON(w, http.StatusOK, map[string]int{"traceLen": len(ws.Trace)})
	case r.Method == http.MethodGet && action == "offers":
		var out []offerResponse
		if ws.OfferID != 0 {
			off := s.st.Offers[ws.OfferID]
			t := s.st.Tasks[off.TaskID]
			out = append(out, offerResponse{
				OfferID: off.ID, TaskID: off.TaskID,
				X: t.Task.Loc.X, Y: t.Task.Loc.Y, Deadline: t.Task.Deadline,
			})
		}
		writeJSON(w, http.StatusOK, out)
	default:
		httpError(w, http.StatusMethodNotAllowed, "method %s %s", r.Method, action)
	}
}

// --- offers ---

type offerRecord struct {
	OfferID  int `json:"offerId"`
	TaskID   int `json:"taskId"`
	WorkerID int `json:"workerId"`
}

func (s *Server) handleOfferByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/offers/")
	parts := strings.Split(rest, "/")
	id, err := strconv.Atoi(parts[0])
	if err != nil {
		httpError(w, http.StatusBadRequest, "use /api/offers/{id}/accept or /reject")
		return
	}
	// GET /api/offers/{id}: the pending offer's (task, worker) pair — the
	// router tier reads it to learn which task an accept is about to commit.
	if r.Method == http.MethodGet && (len(parts) == 1 || parts[1] == "") {
		s.mu.Lock()
		defer s.mu.Unlock()
		off, exists := s.st.Offers[id]
		if !exists {
			httpError(w, http.StatusNotFound, "offer %d not found", id)
			return
		}
		writeJSON(w, http.StatusOK, offerRecord{OfferID: off.ID, TaskID: off.TaskID, WorkerID: off.WorkerID})
		return
	}
	if len(parts) < 2 {
		httpError(w, http.StatusBadRequest, "use /api/offers/{id}/accept or /reject")
		return
	}
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "method %s", r.Method)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	off, exists := s.st.Offers[id]
	if !exists {
		httpError(w, http.StatusNotFound, "offer %d not found", id)
		return
	}
	// The offer is only actionable while its task is still in the offered
	// state: a decision racing task expiry or cancellation must not flip an
	// expired/cancelled task to accepted. The stale offer is retracted (a
	// recorded transition, so replay sees it too) and the worker becomes
	// matchable again.
	t := s.st.Tasks[off.TaskID]
	if t == nil || t.Status != TaskOffered || t.OfferID != id {
		s.commitLocked(core.OfferRetracted{OfferID: id})
		if t == nil {
			httpError(w, http.StatusConflict, "offer %d is stale: task gone", id)
		} else {
			httpError(w, http.StatusConflict, "offer %d is stale: task %d is %s", id, off.TaskID, t.Status)
		}
		return
	}
	switch parts[1] {
	case "accept":
		s.commitLocked(core.OfferAccepted{OfferID: id})
		writeJSON(w, http.StatusOK, map[string]string{"status": "accepted"})
	case "reject":
		s.commitLocked(core.OfferRejected{OfferID: id})
		writeJSON(w, http.StatusOK, map[string]string{"status": "rejected"})
	default:
		// Unknown action: nothing committed, the offer stays pending.
		httpError(w, http.StatusBadRequest, "unknown action %q", parts[1])
	}
}

// --- batch loop ---

type batchResponse struct {
	Tick   int `json:"tick"`
	Offers int `json:"offers"`
	Open   int `json:"open"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "method %s", r.Method)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	made := s.runBatchLocked(r.Context())
	writeJSON(w, http.StatusOK, batchResponse{Tick: s.st.Tick, Offers: made, Open: s.st.OpenTasks()})
}

func (s *Server) handleTick(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.mu.Lock()
		s.commitLocked(core.TickAdvanced{})
		tick := s.st.Tick
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]int{"tick": tick})
	case http.MethodGet:
		s.mu.Lock()
		tick := s.st.Tick
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]int{"tick": tick})
	default:
		httpError(w, http.StatusMethodNotAllowed, "method %s", r.Method)
	}
}

// runBatchLocked builds the assignment input from the state (open tasks and
// online, offer-free workers, model rollouts fanned out on the pool), runs
// the configured assigner, and commits the plan as one BatchAssigned (or
// DegradedBatch) event. It returns the number of offers made. A cancelled
// ctx (e.g. the requester of POST /api/batch hung up) abandons the batch
// without committing anything.
func (s *Server) runBatchLocked(ctx context.Context) int {
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
	// An assigner that never reads Worker.Predicted gets a model-less
	// (stand-still) batch: no rollouts, and the degraded Greedy fallback
	// still has a valid prediction to match on.
	models := s.cfg.Models
	if !assign.ReadsForecast(s.cfg.Assigner) {
		models = nil
	}
	in, err := core.BuildBatch(ctx, s.st, models, s.fc, s.cfg.PredHorizon, s.cfg.Parallelism)
	if err != nil {
		return 0
	}
	if len(in.TaskIDs) == 0 {
		// Nothing to match; still a recorded batch so replayed tallies agree.
		s.commitLocked(core.BatchAssigned{})
		return 0
	}
	pairs, degraded := s.assignWithDeadline(ctx, in.Tasks, in.Workers)
	if ctx.Err() != nil {
		// The matching may be partial; make no offers from it.
		return 0
	}
	// Offer IDs are allocated here, in plan order, and carried inside the
	// event — the log is self-contained and replays to identical IDs. With
	// OfferBase set the allocation starts in this shard's disjoint range.
	next := s.st.NextOffer
	if next < s.cfg.OfferBase {
		next = s.cfg.OfferBase
	}
	grants := make([]core.OfferIssued, len(pairs))
	for i, pr := range pairs {
		grants[i] = core.OfferIssued{
			OfferID:  next + i,
			TaskID:   in.TaskIDs[pr.Task],
			WorkerID: in.Workers[pr.Worker].ID,
		}
	}
	if degraded {
		s.commitLocked(core.DegradedBatch{Offers: grants, PredFallbacks: in.PredFallbacks})
	} else {
		s.commitLocked(core.BatchAssigned{Offers: grants, PredFallbacks: in.PredFallbacks})
	}
	return len(pairs)
}

// assignWithDeadline runs the configured assigner under the batch deadline.
// When the deadline fires before the assigner finishes, its (possibly
// partial) plan is discarded and the batch degrades to the greedy fallback:
// a worse matching delivered on time beats a perfect one delivered late. A
// panicking assigner degrades the same way. Degraded batches are counted
// for /api/metrics.
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
		pairs = (assign.Greedy{}).Assign(tasks, workers, s.st.Tick)
	}
	return pairs, degraded
}

// AdvanceTick moves the platform clock forward one tick and expires
// overdue tasks. The background ticker of cmd/tampserver calls this; tests
// and manual deployments use POST /api/tick.
func (s *Server) AdvanceTick() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commitLocked(core.TickAdvanced{})
	return s.st.Tick
}

// RunBatch executes one assignment batch programmatically, returning the
// number of offers made.
func (s *Server) RunBatch() int {
	return s.RunBatchContext(context.Background())
}

// RunBatchContext is RunBatch under an explicit context; cancellation
// abandons the batch without making offers.
func (s *Server) RunBatchContext(ctx context.Context) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runBatchLocked(ctx)
}

// ListenAndServe serves the platform API on addr until ctx is cancelled,
// then drains in-flight requests through http.Server.Shutdown. When tick is
// positive a background ticker advances the platform clock and runs one
// assignment batch per interval (the batch-mode loop of Fig. 1); the ticker
// stops with ctx. Request handlers inherit ctx as their base context, so
// cancelling it also cancels in-flight batch pools.
func (s *Server) ListenAndServe(ctx context.Context, addr string, tick time.Duration) error {
	srv := &http.Server{
		Addr:        addr,
		Handler:     s,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
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
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(shutCtx)
		<-errc // joins the serve goroutine (ErrServerClosed after Shutdown)
		return err
	case err := <-errc:
		return err
	}
}

// --- metrics ---

type metricsResponse struct {
	Tick     int `json:"tick"`
	Tasks    int `json:"tasks"`
	Assigned int `json:"assigned"`
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	Expired  int `json:"expired"`
	Workers  int `json:"workers"`
	// Degraded-mode accounting: requests answered 500 after a recovered
	// handler panic, batches that fell back to the greedy assigner, and
	// forecasts degraded to stand-still.
	Panics          int64 `json:"panics"`
	DegradedBatches int   `json:"degradedBatches"`
	PredFallbacks   int   `json:"predFallbacks"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The JSON view reads the state machine's recovered-durable tallies
	// (panics excepted — a recovered panic is a process fact, not a state
	// transition); the Prometheus endpoint exports the mirrored series.
	c := s.st.Counts
	writeJSON(w, http.StatusOK, metricsResponse{
		Tick: s.st.Tick, Tasks: len(s.st.Tasks),
		Assigned: int(c.Offers), Accepted: int(c.Accepts),
		Rejected: int(c.Rejects), Expired: int(c.Expired),
		Workers: len(s.st.Workers),
		Panics:  s.panicsC.Value(), DegradedBatches: int(c.DegradedBatches),
		PredFallbacks: int(c.PredFallbacks),
	})
}

func trailingID(path, prefix string) (int, bool) {
	rest := strings.TrimPrefix(path, prefix)
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	id, err := strconv.Atoi(rest)
	return id, err == nil
}
