// Command tampserver runs the spatial crowdsourcing platform as an HTTP
// service: requesters POST tasks, workers report locations and accept or
// reject offers, and the platform runs prediction-aware batch assignment
// every tick.
//
// Usage:
//
//	tampserver -addr :8080 -models bundle.json -tick 2s
//	tampserver -addr :8080 -assigner KM -manual   # advance ticks via POST /api/tick
//	tampserver -addr :8080 -wal-dir /var/lib/tamp/wal -snapshot-every 1024
//
// With -wal-dir the server is durable: every event (task, report, offer,
// decision, batch) is written to a write-ahead log before it is
// acknowledged, and a restart — clean or after a crash — replays the
// newest snapshot plus the log tail back to the exact pre-crash state. The
// recorded log also drives offline assigner comparison: tampbench -replay.
//
// Produce a model bundle with Predictors.SaveModels (see examples/adaptive)
// or run without one: workers without models are forecast as stationary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		models   = flag.String("models", "", "predictor bundle written by SaveModels (optional)")
		assigner = flag.String("assigner", "PPI", "assignment algorithm: PPI, KM, LB, GGPSO")
		tick     = flag.Duration("tick", 2*time.Second, "wall-clock duration of one platform tick")
		manual   = flag.Bool("manual", false, "disable the background ticker; advance via POST /api/tick and /api/batch")
		par      = flag.Int("par", 0, "worker pool size for batch prediction and matching (0 = all cores)")
		batchTO  = flag.Duration("batch-timeout", 0, "per-batch assignment deadline; on expiry the batch degrades to the greedy fallback (0 = no deadline)")
		reqTO    = flag.Duration("request-timeout", 30*time.Second, "per-request handling deadline (negative = none)")
		maxBody  = flag.Int64("max-body", 1<<20, "request body cap in bytes (negative = none)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (metrics at GET /metrics are always on)")
		walDir   = flag.String("wal-dir", "", "write-ahead log directory: every platform event is persisted before it is acknowledged, and a restart replays snapshot + log back to the exact pre-crash state (empty = memory-only)")
		snapN    = flag.Int("snapshot-every", 1024, "with -wal-dir, write a state snapshot every N events to bound restart replay")
		offBase  = flag.Int("offer-base", 0, "smallest offer ID this instance issues; shard i of a routed fleet uses (i+1)*1000000000 so offers route by ID range (0 = standalone)")
		deferRec = flag.Bool("defer-recovery", false, "with -wal-dir, recover in the background and answer /readyz 503 until replay completes, so a router admits the shard only once it is caught up")
	)
	flag.Parse()

	cfg := server.Config{
		Grid: geo.DefaultGrid, Parallelism: *par,
		BatchTimeout: *batchTO, RequestTimeout: *reqTO, MaxBodyBytes: *maxBody,
		EnablePprof: *pprofOn,
		WALDir:      *walDir, SnapshotEvery: *snapN,
		OfferBase: *offBase, DeferRecovery: *deferRec,
	}
	switch *assigner {
	case "PPI":
		cfg.Assigner = assign.PPI{A: predict.DefaultMatchRadius, Parallelism: *par}
	case "KM":
		cfg.Assigner = assign.KM{Parallelism: *par}
	case "LB":
		cfg.Assigner = assign.LB{}
	case "GGPSO":
		cfg.Assigner = assign.GGPSO{}
	default:
		fmt.Fprintf(os.Stderr, "tampserver: unknown assigner %q\n", *assigner)
		os.Exit(2)
	}
	if *models != "" {
		f, err := os.Open(*models)
		if err != nil {
			log.Fatalf("tampserver: %v", err)
		}
		loaded, err := predict.LoadModels(f)
		f.Close()
		if err != nil {
			log.Fatalf("tampserver: %v", err)
		}
		cfg.Models = loaded
		log.Printf("loaded %d worker models from %s", len(loaded), *models)
	}

	s, err := server.New(cfg)
	if err != nil {
		log.Fatalf("tampserver: %v", err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			log.Printf("tampserver: close wal: %v", err)
		}
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	interval := *tick
	if *manual {
		interval = 0
	} else {
		log.Printf("background ticker: 1 tick per %v", *tick)
	}
	log.Printf("platform listening on %s (assigner %s), %s, nn kernels: %s", *addr, *assigner, forecastNote(cfg.Assigner), nn.KernelPath())
	err = s.ListenAndServe(ctx, *addr, interval)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("tampserver: %v", err)
	}
	log.Printf("shut down cleanly")
}

// forecastNote says whether batches roll the mobility models out, so a zero
// predict_cache_misses under LB or UB is explained where it is seen.
func forecastNote(a assign.Assigner) string {
	if assign.ReadsForecast(a) {
		return "forecasts: on"
	}
	return fmt.Sprintf("forecasts: off (assigner %s does not read predicted trajectories)", a.Name())
}
