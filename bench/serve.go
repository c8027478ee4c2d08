package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"github.com/spatialcrowd/tamp"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/replay"
	"github.com/spatialcrowd/tamp/internal/server"
	"github.com/spatialcrowd/tamp/internal/tier"
)

// serveTicks is the length of one serve round. At 25–35 durable ticks a
// second it keeps a round a little over one second, so a run holds nine or
// more, and its ≈ 270 tasks keep the quality ratios from jumping with the
// seed.
const serveTicks = 36

// serveLapTicks is how many ticks make a lap of a serve round: ≈ 0.1 s
// between two readings of the request yardstick.
const serveLapTicks = 3

// listener is an http.Server on a loopback port chosen by the kernel.
type listener struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close stops the server and waits for its accept loop to end.
func (l *listener) close() {
	l.srv.Close()
	<-l.done
}

// tierUnderTest is a router over two durable shards, each behind its own
// loopback listener, as cmd/tamprouter and cmd/tampserver deploy them.
type tierUnderTest struct {
	shards    []*server.Server
	dirs      []string
	listeners []*listener
	router    *tier.Router
	hangUp    func() // closes the driver's idle connection
}

// bootTier starts the tier with its write-ahead logs under dir. wrap, when
// non-nil, is put around the router (shard -1) and around each shard's
// handler; the traced run observes the layers through it.
func bootTier(ctx context.Context, wd *world, models map[int]*predict.WorkerModel, dir string, wrap func(shard int, h http.Handler) http.Handler) (*tierUnderTest, error) {
	if wrap == nil {
		wrap = func(_ int, h http.Handler) http.Handler { return h }
	}
	t := &tierUnderTest{}
	grid := wd.w.Params.Grid
	half := float64(grid.Cols / 2)
	defs := []tier.ShardDef{
		{Name: "west", XMin: 0, XMax: half},
		{Name: "east", XMin: half, XMax: float64(grid.Cols)},
	}
	for i := range defs {
		wal := filepath.Join(dir, defs[i].Name)
		s, err := server.New(server.Config{
			Grid: grid, Models: models, WALDir: wal, WALSyncEvery: 1,
			OfferBase: tier.OfferBase(i),
		})
		if err != nil {
			t.close()
			return nil, err
		}
		t.shards = append(t.shards, s)
		t.dirs = append(t.dirs, wal)
		l, err := listen(wrap(i, s))
		if err != nil {
			t.close()
			return nil, err
		}
		t.listeners = append(t.listeners, l)
		defs[i].URL = l.url
	}
	m, err := tier.NewMap(tier.MapConfig{Grid: grid, BorderKM: 1, Shards: defs})
	if err != nil {
		t.close()
		return nil, err
	}
	if t.router, err = tier.NewRouter(tier.Config{Map: m}); err != nil {
		t.close()
		return nil, err
	}
	t.router.ProbeOnce(ctx) // admits both shards; no background prober runs
	l, err := listen(wrap(-1, t.router))
	if err != nil {
		t.close()
		return nil, err
	}
	t.listeners = append(t.listeners, l)
	return t, nil
}

func (t *tierUnderTest) url() string { return t.listeners[len(t.listeners)-1].url }

// close stops the listeners and closes the shards' logs.
func (t *tierUnderTest) close() error {
	if t.hangUp != nil {
		t.hangUp()
	}
	for _, l := range t.listeners {
		l.close()
	}
	t.listeners = nil
	var errs []error
	for _, s := range t.shards {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}

// fsynced is how long the shards' logs have spent in fsync so far, and how
// often they synced.
func (t *tierUnderTest) fsynced() (seconds float64, n int64) {
	for _, s := range t.shards {
		h := s.Registry().Histogram("tamp_wal_fsync_seconds", obs.DefSecondsBuckets)
		seconds += h.Sum()
		n += h.Count()
	}
	return seconds, n
}

// serveWorkload is "a task submitted at the router": the whole serving tier
// with per-event durability, driven over loopback HTTP.
type serveWorkload struct {
	tmp    string
	wd     *world
	models map[int]*predict.WorkerModel
	n      int     // rounds started, for directory names
	noopUS float64 // the driver's own cost per request, measured once when tracing
}

func (s *serveWorkload) setup(ctx context.Context, seed int64) error {
	wd, err := buildWorld(ctx, seed)
	if err != nil {
		return err
	}
	s.wd = wd
	s.models = map[int]*predict.WorkerModel{}
	for id, m := range wd.pred.Models {
		s.models[id+1] = m // the platform wants positive worker IDs
	}
	// Boot the tier and register the fleet once, as a deployment would
	// before taking traffic; every round repeats this untimed.
	t, _, dir, err := s.fresh(ctx, newMeter(), nil)
	if err != nil {
		return err
	}
	err = t.close()
	os.RemoveAll(dir)
	return err
}

// driver builds the lockstep driver of one round over the first test day.
func (s *serveWorkload) driver(call caller, m *meter) *apiDriver {
	p := s.wd.w.Params
	d := &apiDriver{call: call, m: m, opClass: classWrite, lookahead: lookahead(p), taskReads: 8}
	for i := range s.wd.w.Workers {
		wk := &s.wd.w.Workers[i]
		day := wk.TestDays[0]
		d.workers = append(d.workers, driveWorker{
			id: wk.ID + 1, at: day.At, detour: wk.Detour, speed: wk.Speed, moves: true,
		})
	}
	arrivals := make([][]driveTask, serveTicks)
	for _, t := range s.wd.w.TestTasks {
		if t.Arrival < serveTicks {
			arrivals[t.Arrival] = append(arrivals[t.Arrival], driveTask{loc: t.Loc, deadline: t.Deadline})
		}
	}
	d.arrive = func(k int) []driveTask { return arrivals[k] }
	return d
}

// fresh boots a tier on new log directories and registers the workers.
func (s *serveWorkload) fresh(ctx context.Context, m *meter, tr *tracer) (*tierUnderTest, *apiDriver, string, error) {
	s.n++
	dir := filepath.Join(s.tmp, fmt.Sprintf("serve-%d", s.n))
	t, err := bootTier(ctx, s.wd, s.models, dir, tr.wrapTier())
	if err != nil {
		return nil, nil, dir, err
	}
	var call caller
	call, t.hangUp = tcpCaller(t.url())
	d := s.driver(call, m)
	if err := d.register(); err != nil {
		t.close()
		return nil, nil, dir, err
	}
	return t, d, dir, nil
}

func (s *serveWorkload) round(ctx context.Context, m *meter, tr *tracer) error {
	if tr.active() && s.noopUS == 0 {
		var err error
		if s.noopUS, err = noopLatency(func(h http.Handler) (caller, func(), error) {
			l, err := listen(h)
			if err != nil {
				return nil, nil, err
			}
			call, hangUp := tcpCaller(l.url)
			return call, func() { hangUp(); l.close() }, nil
		}); err != nil {
			return err
		}
	}
	tr.pause() // registration is state building
	t, d, dir, err := s.fresh(ctx, m, tr)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tr.resume()
	_, f0 := t.fsynced()
	requests0 := d.requests
	m.fsynced = t.fsynced
	m.begin()
	tr.start()
	for k := 0; k < serveTicks; k++ {
		if k > 0 && k%serveLapTicks == 0 {
			m.lap()
		}
		d.tick(k)
	}
	_, f1 := t.fsynced()
	d.q.Fsyncs = f1 - f0
	m.end(serveTicks, d.q)
	m.fsynced = nil
	tr.coverage(m, s.noopUS, d.requests-requests0, "tier.", "server.")
	tr.trained(s.wd.pred)
	if tr.active() {
		reg := t.router.Registry()
		tr.count("tier.retries", float64(reg.Counter("tamp_router_retries_total").Value()))
		tr.count("tier.sheds", float64(reg.Counter("tamp_router_sheds_total").Value()))
		for _, sh := range t.shards {
			hits, misses := cacheCounts(sh)
			tr.count("predict.cache_hits", float64(hits))
			tr.count("predict.cache_misses", float64(misses))
		}
	}

	// Every acknowledged event must be in the log: close the tier, recover
	// each shard from its directory alone, and compare state digests.
	live := make([]string, len(t.shards))
	for i, sh := range t.shards {
		live[i] = sh.StateDigest()
	}
	if err := t.close(); err != nil {
		return err
	}
	for i, wal := range t.dirs {
		m.attempted++
		var back *server.Server
		end := tr.span("wal.recover")
		back, err = server.New(server.Config{Grid: s.wd.w.Params.Grid, Models: s.models, WALDir: wal, OfferBase: tier.OfferBase(i)})
		end()
		if err != nil {
			m.fail("recovering shard %d: %v", i, err)
			continue
		}
		if got := back.StateDigest(); got != live[i] {
			m.fail("shard %d recovered digest %s, live %s", i, got, live[i])
		}
		if err := back.Close(); err != nil {
			return err
		}
		// Replaying the shard's log through the assigner it ran must propose
		// the plan it committed, batch for batch.
		m.attempted++
		rep, err := replay.Run(ctx, wal, replay.Options{Assigner: tamp.NewPPI(), Models: s.models, Registry: obs.NewRegistry()})
		if err != nil {
			m.fail("replaying shard %d: %v", i, err)
		} else if rep.AgreementRate() != 1 || rep.Final.Digest() != live[i] {
			m.fail("shard %d: PPI-on-PPI replay agreement %v, want 1; digest match %v", i, rep.AgreementRate(), rep.Final.Digest() == live[i])
		}
		if tr.active() {
			if err := tr.shadow(ctx, wal, s.models, 1, filepath.Join(dir, fmt.Sprintf("shadow-%d", i))); err != nil {
				return err
			}
		}
	}
	return nil
}
