package server

import (
	"context"
	"net/http"
	"runtime"
	"testing"
	"time"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/httpapi"
)

func TestCloseIsIdempotent(t *testing.T) {
	cfg := testConfig()
	cfg.WALDir = t.TempDir()
	c, s, _ := newDurableClient(t, cfg)
	t.Cleanup(c.srv.Close)
	c.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 1, DetourKM: 8, Speed: 1}, nil)

	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}
	// The mux stays mounted: probes answer (reporting down), platform
	// traffic is refused instead of hitting a log-less state machine.
	if code := c.do("GET", "/readyz", nil, nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz status %d after Close, want 503", code)
	}
	if code := c.do("GET", "/healthz", nil, nil); code != http.StatusOK {
		t.Errorf("healthz status %d after Close, want 200", code)
	}
	if code := c.do("POST", "/api/tick", nil, nil); code != http.StatusServiceUnavailable {
		t.Errorf("api status %d after Close, want 503", code)
	}
}

func TestCloseIsIdempotentMemoryOnly(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
}

// gateAssigner blocks inside Assign until released, so a test can hold a
// batch in flight at an exact point.
type gateAssigner struct {
	started chan struct{}
	release chan struct{}
}

func (g *gateAssigner) Name() string { return "gate" }

func (g *gateAssigner) Assign(context.Context, []assign.Task, []assign.Worker, int) []assign.Pair {
	close(g.started)
	<-g.release
	return nil
}

// Close racing an in-flight batch must wait for the batch, close the log
// exactly once, and leave no goroutine behind.
func TestCloseDuringInFlightBatchLeaksNothing(t *testing.T) {
	gate := &gateAssigner{started: make(chan struct{}), release: make(chan struct{})}
	cfg := testConfig()
	cfg.WALDir = t.TempDir()
	cfg.Assigner = gate
	c, s, ts := newDurableClient(t, cfg)
	c.do("POST", "/api/workers", httpapi.WorkerRequest{ID: 1, DetourKM: 8, Speed: 1}, nil)
	walkWorker(c, 1, 4, 10, 10)
	c.do("POST", "/api/tasks", httpapi.TaskRequest{X: 12, Y: 10, Deadline: 30}, nil)
	ts.Close() // all further traffic is programmatic

	before := runtime.NumGoroutine()
	batchDone := make(chan int)
	go func() { batchDone <- s.RunBatchContext(context.Background()) }()
	<-gate.started

	closeDone := make(chan error)
	go func() { closeDone <- s.Close() }()
	// Close is blocked on the state lock the batch holds; the batch must
	// still be running.
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned %v while a batch held the state lock", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate.release)
	if err := <-closeDone; err != nil {
		t.Fatalf("Close after batch: %v", err)
	}
	offers := <-batchDone
	if offers != 0 {
		t.Fatalf("gate assigner made %d offers", offers)
	}

	// Goroutine accounting: everything the batch and Close spawned must be
	// gone. Brief grace for runtime bookkeeping, as in the shutdown test.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if now := runtime.NumGoroutine(); now <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
