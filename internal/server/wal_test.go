package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"github.com/spatialcrowd/tamp/internal/fault"
	"github.com/spatialcrowd/tamp/internal/wal"
)

// newDurableClient starts a WAL-backed server and returns the client plus
// the Server itself, so tests can close and restart it on the same log.
func newDurableClient(t *testing.T, cfg Config) (*client, *Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	return &client{t: t, srv: ts}, s, ts
}

// TestWALRecoveryResumesExactState drives the full protocol against a
// durable server, restarts it on the same log directory, and requires the
// recovered state to be bit-identical — down to an offer issued before the
// restart still being decidable after it.
func TestWALRecoveryResumesExactState(t *testing.T) {
	cfg := testConfig()
	cfg.WALDir = t.TempDir()
	cfg.SnapshotEvery = 4 // several snapshots over the run

	c, s1, ts1 := newDurableClient(t, cfg)
	c.do("POST", "/api/workers", workerRequest{ID: 1, DetourKM: 8, Speed: 1, MR: 0.8}, nil)
	c.do("POST", "/api/workers", workerRequest{ID: 2, DetourKM: 8, Speed: 1, MR: 0.8}, nil)
	walkWorker(c, 1, 4, 10, 10)
	walkWorker(c, 2, 4, 40, 10)
	c.do("POST", "/api/tasks", taskRequest{X: 15, Y: 10, Deadline: 30}, nil)
	c.do("POST", "/api/tasks", taskRequest{X: 45, Y: 10, Deadline: 30}, nil)
	var batch batchResponse
	c.do("POST", "/api/batch", nil, &batch)
	if batch.Offers != 2 {
		t.Fatalf("offers = %d, want 2", batch.Offers)
	}
	var offers1 []offerResponse
	c.do("GET", "/api/workers/1/offers", nil, &offers1)
	if len(offers1) != 1 {
		t.Fatalf("worker 1 offers = %+v", offers1)
	}
	c.do("POST", fmt.Sprintf("/api/offers/%d/accept", offers1[0].OfferID), nil, nil)
	c.do("POST", "/api/tick", nil, nil)

	var offers2 []offerResponse
	c.do("GET", "/api/workers/2/offers", nil, &offers2)
	if len(offers2) != 1 {
		t.Fatalf("worker 2 offers = %+v", offers2)
	}
	var m1 metricsResponse
	c.do("GET", "/api/metrics", nil, &m1)
	digest := s1.StateDigest()

	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if snaps, _ := filepath.Glob(filepath.Join(cfg.WALDir, "*.snap")); len(snaps) == 0 {
		t.Fatal("no snapshots written")
	}

	// Restart on the same log. The state machine must come back
	// bit-identical, not merely similar.
	c2, s2, _ := newDurableClient(t, cfg)
	t.Cleanup(c2.srv.Close)
	if got := s2.StateDigest(); got != digest {
		t.Fatalf("recovered digest differs:\n%s\n%s", got, digest)
	}
	var m2 metricsResponse
	c2.do("GET", "/api/metrics", nil, &m2)
	if m1 != m2 {
		t.Fatalf("metrics after restart = %+v, want %+v", m2, m1)
	}

	// The offer issued before the restart is still live: worker 2 can
	// reject it, and the exclusion sticks.
	if code := c2.do("POST", fmt.Sprintf("/api/offers/%d/reject", offers2[0].OfferID), nil, nil); code != http.StatusOK {
		t.Fatalf("reject recovered offer: status %d", code)
	}
	var m3 metricsResponse
	c2.do("GET", "/api/metrics", nil, &m3)
	if m3.Rejected != m1.Rejected+1 {
		t.Fatalf("rejected = %d, want %d", m3.Rejected, m1.Rejected+1)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// crashScript drives a fixed op sequence against a durable server, capturing
// the state digest before and after every op, until an op dies with a 500
// (the injected crash) or the script ends. It reports the digest of the
// state just before the failed op and just after it.
func crashScript(t *testing.T, c *client, s *Server) (crashed bool, before, after string) {
	t.Helper()
	ops := []func() int{
		func() int { return c.do("POST", "/api/workers", workerRequest{ID: 1, DetourKM: 8, Speed: 1}, nil) },
		func() int { return c.do("POST", "/api/workers/1/location", locationRequest{X: 10, Y: 10}, nil) },
		func() int { return c.do("POST", "/api/workers/1/location", locationRequest{X: 11, Y: 10}, nil) },
		func() int { return c.do("POST", "/api/tasks", taskRequest{X: 13, Y: 10, Deadline: 30}, nil) },
		func() int { return c.do("POST", "/api/batch", nil, nil) },
		func() int { return c.do("POST", "/api/offers/1/accept", nil, nil) },
		func() int { return c.do("POST", "/api/tick", nil, nil) },
		func() int { return c.do("POST", "/api/tasks", taskRequest{X: 20, Y: 10, Deadline: 30}, nil) },
		func() int { return c.do("POST", "/api/tick", nil, nil) },
	}
	for _, op := range ops {
		before = s.StateDigest()
		code := op()
		after = s.StateDigest()
		if code == http.StatusInternalServerError {
			return true, before, after
		}
	}
	return false, before, after
}

// TestCrashMidAppendLosesOnlyTheUnackedOp kills the WAL mid-frame (header
// written, payload not) on a live HTTP op. The op is answered 500 — never
// acknowledged — so losing it is correct; everything acknowledged before it
// must come back bit-identically.
func TestCrashMidAppendLosesOnlyTheUnackedOp(t *testing.T) {
	for hit := 2; hit <= 6; hit++ {
		t.Run(fmt.Sprintf("hit%d", hit), func(t *testing.T) {
			cfg := testConfig()
			cfg.WALDir = t.TempDir()
			crasher := fault.NewCrasher(wal.HookAppendFrame, hit)
			cfg.WALHook = crasher.Hit

			c, s1, ts1 := newDurableClient(t, cfg)
			crashed, before, _ := crashScript(t, c, s1)
			ts1.Close()
			if !crashed {
				t.Fatalf("crasher never fired (hits=%d)", crasher.Hits())
			}

			// "Restart the process": a fresh server on the same directory.
			cfg.WALHook = nil
			s2, err := New(cfg)
			if err != nil {
				t.Fatalf("restart after crash: %v", err)
			}
			if got := s2.StateDigest(); got != before {
				t.Fatalf("recovered state != state before the unacked op:\n%s\n%s", got, before)
			}
			// The revived server still serves and commits durably.
			ts2 := httptest.NewServer(s2)
			t.Cleanup(ts2.Close)
			c2 := &client{t: t, srv: ts2}
			if code := c2.do("POST", "/api/tasks", taskRequest{X: 5, Y: 5, Deadline: 90}, nil); code != http.StatusCreated {
				t.Fatalf("post-recovery task: status %d", code)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashDuringSnapshotKeepsAppendedEvents kills the process between the
// snapshot temp-file write and its rename. The event that triggered the
// snapshot was already appended and fsynced, so recovery must include it —
// the crash costs the snapshot, never the log.
func TestCrashDuringSnapshotKeepsAppendedEvents(t *testing.T) {
	cfg := testConfig()
	cfg.WALDir = t.TempDir()
	cfg.SnapshotEvery = 3
	crasher := fault.NewCrasher(wal.HookSnapshotRename, 1)
	cfg.WALHook = crasher.Hit

	c, s1, ts1 := newDurableClient(t, cfg)
	crashed, _, after := crashScript(t, c, s1)
	ts1.Close()
	if !crashed {
		t.Fatal("snapshot crasher never fired")
	}

	cfg.WALHook = nil
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart after snapshot crash: %v", err)
	}
	if got := s2.StateDigest(); got != after {
		t.Fatalf("recovered state lost an appended event:\n%s\n%s", got, after)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALAppendErrorIsVisible injects an append error through Config.WALHook
// — the hook pulls the log's file out from under the append between frame
// header and payload, the way a yanked disk would — and requires the loss of
// durability to show on the registry: tamp_server_durable drops 1 → 0 and
// tamp_server_wal_append_errors_total counts the error, while the op is
// still acknowledged and the server keeps serving memory-only.
func TestWALAppendErrorIsVisible(t *testing.T) {
	cfg := testConfig()
	cfg.WALDir = t.TempDir()
	var s *Server
	appends := 0
	cfg.WALHook = func(point string) {
		if point == wal.HookAppendFrame {
			if appends++; appends == 3 {
				s.log.Close() // under s.mu, on the committing goroutine
			}
		}
	}
	c, s, ts := newDurableClient(t, cfg)
	defer ts.Close()
	durable := s.Registry().Gauge("tamp_server_durable")
	appendErrs := s.Registry().Counter("tamp_server_wal_append_errors_total")

	submit := func() {
		t.Helper()
		if code := c.do("POST", "/api/tasks", taskRequest{X: 5, Y: 5, Deadline: 90}, nil); code != http.StatusCreated {
			t.Fatalf("task submission: status %d", code)
		}
	}
	submit()
	submit()
	if durable.Value() != 1 || appendErrs.Value() != 0 {
		t.Fatalf("healthy log: durable = %v, append errors = %d; want 1, 0", durable.Value(), appendErrs.Value())
	}
	submit() // the third append fails; the op is acknowledged all the same
	if durable.Value() != 0 || appendErrs.Value() != 1 {
		t.Fatalf("after the append error: durable = %v, append errors = %d; want 0, 1", durable.Value(), appendErrs.Value())
	}
	submit() // memory-only from here on: no further appends, no further errors
	if durable.Value() != 0 || appendErrs.Value() != 1 || appends != 3 {
		t.Fatalf("memory-only: durable = %v, append errors = %d, appends = %d; want 0, 1, 3",
			durable.Value(), appendErrs.Value(), appends)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A server that never had a log is not durable either.
	mem, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if v := mem.Registry().Gauge("tamp_server_durable").Value(); v != 0 {
		t.Fatalf("memory-only server: durable = %v, want 0", v)
	}
}
