package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/fault"
	"github.com/spatialcrowd/tamp/internal/httpapi"
	"github.com/spatialcrowd/tamp/internal/predict"
)

// offerSetup registers one worker, posts one task near its trace, runs a
// batch, and returns the resulting task and offer.
func offerSetup(t *testing.T, c *client, deadline int) (httpapi.TaskResponse, httpapi.OfferResponse) {
	t.Helper()
	c.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 1, DetourKM: 8, Speed: 1, MR: 0.8}, nil)
	walkWorker(c, 1, 6, 10, 10)
	var task httpapi.TaskResponse
	c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 18, Y: 10, Deadline: deadline}, &task)
	var batch httpapi.BatchResponse
	c.do("POST", "/api/batch", nil, &batch)
	if batch.Offers != 1 {
		t.Fatalf("offers = %d, want 1", batch.Offers)
	}
	var offers []httpapi.OfferResponse
	c.do("GET", "/api/workers/1/offers", nil, &offers)
	if len(offers) != 1 {
		t.Fatalf("worker offers = %+v", offers)
	}
	return task, offers[0]
}

// TestOfferOutstandingAtExpiry: the deadline tick fires while an offer is
// still pending. The task expires, the offer is retracted, the worker is
// matchable again, and a late accept on the dead offer cannot resurrect the
// task.
func TestOfferOutstandingAtExpiry(t *testing.T) {
	c := newClient(t, testConfig())
	task, off := offerSetup(t, c, 6)
	for i := 0; i < 7; i++ {
		c.do("POST", "/api/tick", nil, nil)
	}
	var got httpapi.TaskResponse
	c.do("GET", fmt.Sprintf("/api/tasks/%d", task.ID), nil, &got)
	if got.Status != string(core.StatusExpired) {
		t.Fatalf("offered task after deadline = %+v", got)
	}
	// The retracted offer is gone; the late accept must not land.
	if code := c.do("POST", fmt.Sprintf("/api/offers/%d/accept", off.OfferID), nil, nil); code != http.StatusNotFound {
		t.Fatalf("late accept on expired offer: status %d, want 404", code)
	}
	c.do("GET", fmt.Sprintf("/api/tasks/%d", task.ID), nil, &got)
	if got.Status != string(core.StatusExpired) {
		t.Fatalf("late accept resurrected the task: %+v", got)
	}
	// The worker's offer slot is free: a fresh task can be offered.
	var task2 httpapi.TaskResponse
	c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 16, Y: 10, Deadline: 40}, &task2)
	var batch httpapi.BatchResponse
	c.do("POST", "/api/batch", nil, &batch)
	if batch.Offers != 1 {
		t.Fatalf("worker still blocked by a retracted offer: %+v", batch)
	}
	if a, e := c.count("tamp_server_accepts_total"), c.count("tamp_server_expired_total"); a != 0 || e != 1 {
		t.Fatalf("accepts, expired = %d, %d; want 0, 1", a, e)
	}
}

// TestDeleteOfferedTaskRetractsOffer: DELETE on a task in the offered state
// cancels it AND withdraws the outstanding offer, so the offer can no
// longer be accepted and the worker is immediately matchable.
func TestDeleteOfferedTaskRetractsOffer(t *testing.T) {
	c := newClient(t, testConfig())
	task, off := offerSetup(t, c, 40)
	var cancelled httpapi.TaskResponse
	if code := c.do("DELETE", fmt.Sprintf("/api/tasks/%d", task.ID), nil, &cancelled); code != http.StatusOK {
		t.Fatalf("cancel status %d", code)
	}
	if cancelled.Status != string(core.StatusCancelled) {
		t.Fatalf("status after cancel = %s", cancelled.Status)
	}
	if code := c.do("POST", fmt.Sprintf("/api/offers/%d/accept", off.OfferID), nil, nil); code != http.StatusNotFound {
		t.Fatalf("accept on cancelled task's offer: status %d, want 404", code)
	}
	var got httpapi.TaskResponse
	c.do("GET", fmt.Sprintf("/api/tasks/%d", task.ID), nil, &got)
	if got.Status != string(core.StatusCancelled) {
		t.Fatalf("accept flipped a cancelled task: %+v", got)
	}
	// Worker free again.
	var task2 httpapi.TaskResponse
	c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 16, Y: 10, Deadline: 40}, &task2)
	var batch httpapi.BatchResponse
	c.do("POST", "/api/batch", nil, &batch)
	if batch.Offers != 1 {
		t.Fatalf("worker still blocked after task cancellation: %+v", batch)
	}
}

// TestDoubleAccept: the second accept of the same offer must fail and must
// not double-count the acceptance.
func TestDoubleAccept(t *testing.T) {
	c := newClient(t, testConfig())
	_, off := offerSetup(t, c, 40)
	if code := c.do("POST", fmt.Sprintf("/api/offers/%d/accept", off.OfferID), nil, nil); code != http.StatusOK {
		t.Fatalf("first accept status %d", code)
	}
	if code := c.do("POST", fmt.Sprintf("/api/offers/%d/accept", off.OfferID), nil, nil); code != http.StatusNotFound {
		t.Fatalf("second accept status %d, want 404", code)
	}
	if a := c.count("tamp_server_accepts_total"); a != 1 {
		t.Fatalf("accepts = %d after double accept, want 1", a)
	}
}

// TestPanicRecoveryMiddleware: a panicking handler is answered with a JSON
// 500, the panic is counted as tamp_server_faults_total{kind="panic"}, and
// the server keeps serving.
func TestPanicRecoveryMiddleware(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Same-package test hook: mount a deliberately broken route behind the
	// middleware.
	s.mux.HandleFunc("/api/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	c := &client{t: t, s: s, srv: ts}

	var errResp map[string]string
	if code := c.do("GET", "/api/boom", nil, &errResp); code != http.StatusInternalServerError {
		t.Fatalf("panicking route status %d, want 500", code)
	}
	if errResp["error"] == "" {
		t.Fatalf("500 body = %v, want JSON error", errResp)
	}
	// Server still alive and counting.
	if code := c.do("GET", "/api/tick", nil, nil); code != http.StatusOK {
		t.Fatalf("tick after panic: status %d", code)
	}
	if p := c.fault("panic"); p != 1 {
		t.Fatalf("panics = %d, want 1", p)
	}
}

// TestPanickingModelDegradesWorkerNotBatch: a predictor that panics inside
// the batch pool degrades its worker to a stand-still forecast; the batch
// still produces offers and the fallback is counted.
func TestPanickingModelDegradesWorkerNotBatch(t *testing.T) {
	cfg := testConfig()
	cfg.Models = map[int]*predict.WorkerModel{
		1: {WorkerID: 1, Model: &fault.PanicModel{}, SeqIn: 3, SeqOut: 1},
	}
	c := newClient(t, cfg)
	c.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 1, DetourKM: 8, Speed: 1, MR: 0.8}, nil)
	walkWorker(c, 1, 6, 10, 10)
	// Task at the worker's stand-still location is feasible without a model.
	c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 15, Y: 10, Deadline: 40}, nil)
	var batch httpapi.BatchResponse
	c.do("POST", "/api/batch", nil, &batch)
	if batch.Offers != 1 {
		t.Fatalf("offers = %d, want 1 from the degraded worker", batch.Offers)
	}
	if c.fault("pred_fallback") == 0 {
		t.Fatal("predictor fallback not counted")
	}
	if p := c.fault("panic"); p != 0 {
		t.Fatalf("model panic leaked to the middleware: %d panics", p)
	}
}

// stallAssigner blocks until its context is done, then returns a bogus
// partial plan — exactly what a degraded batch must discard.
type stallAssigner struct{}

func (stallAssigner) Name() string { return "Stall" }
func (stallAssigner) Assign(ctx context.Context, tasks []assign.Task, workers []assign.Worker, tick int) []assign.Pair {
	<-ctx.Done()
	return []assign.Pair{{Task: 0, Worker: 0}}
}

// TestBatchDeadlineFallsBackToGreedy: when the primary assigner blows the
// batch deadline, its partial plan is discarded, the greedy fallback makes
// the offers, and the degraded batch is counted.
func TestBatchDeadlineFallsBackToGreedy(t *testing.T) {
	cfg := testConfig()
	cfg.Assigner = stallAssigner{}
	cfg.BatchTimeout = 20 * time.Millisecond
	c := newClient(t, cfg)
	c.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 1, DetourKM: 8, Speed: 1, MR: 0.8}, nil)
	walkWorker(c, 1, 6, 10, 10)
	c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 15, Y: 10, Deadline: 40}, nil)
	var batch httpapi.BatchResponse
	c.do("POST", "/api/batch", nil, &batch)
	if batch.Offers != 1 {
		t.Fatalf("degraded batch offers = %d, want 1 from greedy", batch.Offers)
	}
	if d := c.fault("degraded_batch"); d != 1 {
		t.Fatalf("degraded batches = %d, want 1", d)
	}
}

// panicAssigner dies mid-matching; the batch must degrade, not the process.
type panicAssigner struct{}

func (panicAssigner) Name() string { return "Panic" }
func (panicAssigner) Assign(context.Context, []assign.Task, []assign.Worker, int) []assign.Pair {
	panic("assigner bug")
}

func TestPanickingAssignerFallsBackToGreedy(t *testing.T) {
	cfg := testConfig()
	cfg.Assigner = panicAssigner{}
	c := newClient(t, cfg)
	c.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 1, DetourKM: 8, Speed: 1, MR: 0.8}, nil)
	walkWorker(c, 1, 6, 10, 10)
	c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 15, Y: 10, Deadline: 40}, nil)
	var batch httpapi.BatchResponse
	c.do("POST", "/api/batch", nil, &batch)
	if batch.Offers != 1 {
		t.Fatalf("offers = %d, want 1 from greedy after assigner panic", batch.Offers)
	}
	if d, p := c.fault("degraded_batch"), c.fault("panic"); d != 1 || p != 0 {
		t.Fatalf("degraded batches, panics = %d, %d; want 1 and no middleware panic", d, p)
	}
}

// TestRequestBodyCap: oversized request bodies are refused, not buffered.
func TestRequestBodyCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBodyBytes = 64
	c := newClient(t, cfg)
	huge := map[string]string{"junk": strings.Repeat("x", 4096)}
	if code := c.do("POST", "/api/tasks", huge, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized body status %d, want 400", code)
	}
	// Normal-size requests still work.
	if code := c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 1, Y: 1, Deadline: 5}, nil); code != http.StatusCreated {
		t.Fatalf("small body status %d", code)
	}
}

// TestRequestTimeoutCancelsBatch: the per-request deadline cancels in-flight
// batch work instead of hanging the handler forever.
func TestRequestTimeoutCancelsBatch(t *testing.T) {
	cfg := testConfig()
	cfg.Assigner = stallAssigner{}
	cfg.RequestTimeout = 30 * time.Millisecond
	c := newClient(t, cfg)
	c.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 1, DetourKM: 8, Speed: 1, MR: 0.8}, nil)
	walkWorker(c, 1, 6, 10, 10)
	c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 15, Y: 10, Deadline: 40}, nil)
	done := make(chan httpapi.BatchResponse, 1)
	go func() {
		var batch httpapi.BatchResponse
		c.do("POST", "/api/batch", nil, &batch)
		done <- batch
	}()
	select {
	case batch := <-done:
		// The cancelled batch makes no offers (the plan may be partial).
		if batch.Offers != 0 {
			t.Fatalf("cancelled batch made %d offers", batch.Offers)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch request hung past the request timeout")
	}
}

// TestListenAndServeShutdownLeaksNoGoroutines: a full server lifecycle —
// start, serve a request, cancel — must return every goroutine it started
// (ticker loop, serve loop, in-flight handlers).
func TestListenAndServeShutdownLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		s, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() { errc <- s.ListenAndServe(ctx, "127.0.0.1:0", time.Millisecond) }()
		// Let the ticker fire a few times, then shut down.
		time.Sleep(20 * time.Millisecond)
		cancel()
		select {
		case err := <-errc:
			if err != nil && err != http.ErrServerClosed {
				t.Fatalf("shutdown error: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("server did not shut down")
		}
	}
	// Goroutine counts are noisy (finalizers, the test framework); poll
	// until the count returns to the baseline neighborhood.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s", before, now, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
