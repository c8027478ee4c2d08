// Command tampsim runs one end-to-end platform simulation: generate a
// synthetic workload, train mobility predictors, and simulate the online
// batch assignment stage with a chosen algorithm.
//
// Usage:
//
//	tampsim -workload 1 -assigner PPI -tasks 3000 -detour 6
//	tampsim -workload 2 -assigner KM -loss mse -valid 3
//	tampsim -workers-csv w.csv -tasks-csv t.csv    # externally supplied data
//	tampsim -chaos -chaos-seed 7                   # re-run under fault injection
//	tampsim -record /tmp/run.wal                   # persist the run's event log for offline replay
//
// The CSV formats are the ones cmd/tampgen writes; see internal/ingest.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"github.com/spatialcrowd/tamp"
	"github.com/spatialcrowd/tamp/internal/ingest"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/obs"
)

func main() {
	var (
		workload = flag.Int("workload", 1, "workload family: 1 (porto+didi) or 2 (gowalla+foursquare)")
		assigner = flag.String("assigner", "PPI", "assignment algorithm: PPI, KM, UB, LB, GGPSO")
		loss     = flag.String("loss", "weighted", "training loss: weighted (task-assignment-oriented) or mse")
		alg      = flag.String("alg", tamp.AlgGTTAML, "prediction algorithm: MAML, CTML, GTTAML-GT, GTTAML")
		workers  = flag.Int("workers", 30, "number of established workers")
		tasks    = flag.Int("tasks", 1000, "number of test-horizon tasks")
		detour   = flag.Float64("detour", 6, "worker detour budget d in km")
		valid    = flag.Int("valid", 3, "task valid time lower bound, in 10-minute units")
		iters    = flag.Int("iters", 20, "meta-training iterations")
		seed     = flag.Int64("seed", 1, "workload and training seed")
		wcsv     = flag.String("workers-csv", "", "load worker trajectories from a tampgen-format CSV instead of generating")
		tcsv     = flag.String("tasks-csv", "", "load tasks from a tampgen-format CSV (requires -workers-csv)")
		par      = flag.Int("par", 0, "cores for training, simulation and the assigner: sets GOMAXPROCS (0 = all cores)")
		chaos    = flag.Bool("chaos", false, "also run the simulation under deterministic fault injection and report the degradation")
		chaosSd  = flag.Int64("chaos-seed", 1, "fault-injection schedule seed")
		metrics  = flag.Bool("metrics", false, "collect run metrics in a registry and dump it (Prometheus text) at end of run")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this address while the run lasts (e.g. localhost:6060)")
		record   = flag.String("record", "", "write every platform event of the run to this write-ahead-log directory; replay it offline with `tampbench -replay <dir> -assigner <name>`")
	)
	flag.Parse()
	// Every stage sizes its worker pool from GOMAXPROCS when its
	// Parallelism is 0, as the facade leaves it, so one setting bounds all.
	if *par > 0 {
		runtime.GOMAXPROCS(*par)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
		ctx = obs.WithRegistry(ctx, reg)
	}
	if *pprofA != "" {
		go func() {
			fmt.Fprintln(os.Stderr, "tampsim: pprof:", http.ListenAndServe(*pprofA, nil))
		}()
		fmt.Printf("pprof listening on http://%s/debug/pprof/\n", *pprofA)
	}

	kind := tamp.Workload1
	if *workload == 2 {
		kind = tamp.Workload2
	}
	p := tamp.DefaultWorkloadParams(kind)
	p.Seed = *seed
	p.NumWorkers = *workers
	p.NewWorkers = *workers / 10
	p.NumTestTasks = *tasks
	p.DetourKM = *detour
	p.ValidMin = *valid
	p.ValidMax = *valid + 1

	var w *tamp.Workload
	if *wcsv != "" {
		if *tcsv == "" {
			fmt.Fprintln(os.Stderr, "tampsim: -tasks-csv required with -workers-csv")
			os.Exit(2)
		}
		var err error
		w, err = loadWorkload(p, *wcsv, *tcsv)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tampsim:", err)
			os.Exit(1)
		}
		fmt.Printf("loaded %d workers and %d tasks from CSV\n", len(w.Workers), len(w.TestTasks))
	} else {
		fmt.Printf("generating %v: %d workers, %d tasks, d=%.1fkm, valid [%d,%d] units\n",
			kind, p.NumWorkers+p.NewWorkers, p.NumTestTasks, p.DetourKM, p.ValidMin, p.ValidMax)
		w = tamp.GenerateWorkload(p)
	}

	fmt.Printf("training %s predictors (%s loss, %d iters; nn kernels: %s)...\n", *alg, *loss, *iters, nn.KernelPath())
	pred, err := tamp.TrainPredictors(ctx, w, tamp.TrainOptions{
		Algorithm:    *alg,
		WeightedLoss: *loss == "weighted",
		MetaIters:    *iters,
		Seed:         *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tampsim:", err)
		os.Exit(1)
	}
	fmt.Printf("prediction quality: RMSE %.4f  MAE %.4f  MR %.4f  (train %v)\n",
		pred.Eval.RMSE, pred.Eval.MAE, pred.Eval.MR, pred.TrainTime.Round(1e6))

	var a tamp.Assigner
	switch *assigner {
	case "PPI":
		a = tamp.NewPPI()
	case "KM":
		a = tamp.NewKM()
	case "UB":
		a = tamp.NewUB()
	case "LB":
		a = tamp.NewLB()
	case "GGPSO":
		a = tamp.NewGGPSO(*seed)
	default:
		fmt.Fprintf(os.Stderr, "tampsim: unknown assigner %q\n", *assigner)
		os.Exit(2)
	}

	fmt.Printf("simulating online assignment with %s...\n", a.Name())
	// What each simulation cost in forecasts, and what it found in the memo
	// the predictors carry from the one before.
	var hits, misses int64
	reportForecasts := func() {
		h, m, _ := pred.Forecasts.Stats()
		fmt.Printf("forecasts: %d rolled out, %d reused\n", m-misses, h-hits)
		hits, misses = h, m
	}
	var m tamp.Metrics
	if *record != "" {
		m, err = tamp.SimulateRecorded(ctx, w, pred, a, *record)
	} else {
		m, err = tamp.Simulate(ctx, w, pred, a)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tampsim:", err)
		os.Exit(1)
	}
	if *record != "" {
		fmt.Printf("recorded the run's event log to %s (replay: tampbench -replay %s -assigner KM)\n", *record, *record)
	}
	fmt.Println()
	fmt.Printf("tasks arrived:     %d\n", m.TotalTasks)
	fmt.Printf("assignments |M|:   %d\n", m.Assigned)
	fmt.Printf("accepted |M'|:     %d\n", m.Accepted)
	fmt.Printf("completion rate:   %.4f\n", m.CompletionRate())
	fmt.Printf("rejection rate:    %.4f\n", m.RejectionRate())
	fmt.Printf("avg worker cost:   %.4f km\n", m.AvgCostKM())
	fmt.Printf("assignment time:   %v\n", m.AssignTime.Round(1e6))
	reportForecasts()

	if *chaos {
		fc := tamp.FaultConfig{
			Seed:               *chaosSd,
			WorkerChurn:        0.20,
			DropReport:         0.10,
			GPSNoise:           0.10,
			GPSNoiseCells:      1.0,
			PredictorFail:      0.05,
			DecisionDelay:      0.20,
			DecisionDelayTicks: 3,
		}
		fmt.Printf("\nre-running under chaos (seed %d: 20%% churn, 10%% dropped reports, "+
			"10%% GPS noise, 5%% predictor failures, 20%% delayed decisions)...\n", fc.Seed)
		cm, err := tamp.SimulateChaos(ctx, w, pred, a, fc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tampsim:", err)
			os.Exit(1)
		}
		fmt.Printf("chaos completion:  %.4f  (fault-free %.4f, delta %+.4f)\n",
			cm.CompletionRate(), m.CompletionRate(), cm.CompletionRate()-m.CompletionRate())
		fmt.Printf("chaos rejection:   %.4f\n", cm.RejectionRate())
		fmt.Printf("faults absorbed:   offline-ticks %d  dropped %d  noised %d  "+
			"pred-fallbacks %d  deferred-decisions %d\n",
			cm.Faults.OfflineTicks, cm.Faults.DroppedReports, cm.Faults.NoisyReports,
			cm.Faults.PredFallbacks, cm.Faults.DeferredDecisions)
		// Only the windows the injector dropped from or perturbed, and the
		// ticks churn rescheduled, are rolled out anew.
		reportForecasts()
	}

	if reg != nil {
		fmt.Printf("\n== metric registry (Prometheus text) ==\n%s", reg.Dump())
	}
}

// loadWorkload assembles a workload from tampgen-format CSV files.
func loadWorkload(p tamp.WorkloadParams, workersPath, tasksPath string) (*tamp.Workload, error) {
	wf, err := os.Open(workersPath)
	if err != nil {
		return nil, err
	}
	defer wf.Close()
	workers, err := ingest.LoadWorkersCSV(wf)
	if err != nil {
		return nil, err
	}
	tf, err := os.Open(tasksPath)
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	tasks, err := ingest.LoadTasksCSV(tf)
	if err != nil {
		return nil, err
	}
	return ingest.BuildWorkload(p, workers, tasks, nil, nil), nil
}
