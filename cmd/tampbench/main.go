// Command tampbench regenerates the tables and figures of the paper's
// evaluation (§IV and Appendix C) on the synthetic workloads.
//
// Usage:
//
//	tampbench -list
//	tampbench -exp table4 -scale quick
//	tampbench -exp fig6,fig7 -scale full
//	tampbench -exp all -scale quick
//	tampbench -json BENCH_nn.json
//	tampbench -assign-json BENCH_assign.json
//	tampbench -predict-json BENCH_predict.json         # prediction-engine (forecast cache, rollouts) benchmarks
//	tampbench -check BENCH_nn.json -check-assign BENCH_assign.json -check-predict BENCH_predict.json -tolerance 0.25   # CI regression guard
//	tampbench -matrix                                  # regenerate BENCH_matrix.json + MATRIX.md
//	tampbench -check-matrix BENCH_matrix.json -matrix-scale smoke   # CI matrix gate
//	tampbench -replay /var/lib/tamp/wal -assigner KM   # re-run a recorded log offline
//
// -matrix runs the cross-product of the scenario workload generators
// (internal/scenario: paper, windows, budget) × the full assigner zoo
// (UB, PPI, KM, GGPSO, Greedy, LB) at each -matrix-scale and commits the
// per-cell metrics; -check-matrix diffs a fresh run against the committed
// file with per-metric tolerances and exits 1 on drift.
//
// -replay feeds an event log recorded by a durable server (tampserver
// -wal-dir) or a recording simulation (tampsim -record) through any
// assigner: the replayed state follows the live run event for event, while
// at each batch the chosen assigner produces a counterfactual plan over the
// exact batch input the live platform saw, reported pair-for-pair against
// the live plan. Repeated replays are bit-identical.
//
// Scale "quick" finishes in seconds per experiment; "full" takes minutes
// per experiment and produces the paper-shaped trends recorded in
// EXPERIMENTS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/experiments"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/perf"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/replay"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments and exit")
		expFlag  = flag.String("exp", "", "comma-separated experiment ids, or 'all'")
		scale    = flag.String("scale", "quick", "experiment scale: quick or full")
		seed     = flag.Int64("seed", 0, "override the workload seed (0 keeps the scale default)")
		csvDir   = flag.String("csv", "", "also write <dir>/<exp>.csv with machine-readable rows")
		seeds    = flag.Int("seeds", 1, "run each experiment over this many seeds and report mean ± std")
		par      = flag.Int("par", 0, "worker pool size for training, simulation, and multi-seed fan-out (0 = all cores)")
		jsonOut  = flag.String("json", "", "run the NN kernel benchmarks and write before/after results to this file")
		check    = flag.String("check", "", "run the NN kernel benchmarks and compare against the current rows of this file; exit 1 on regression")
		assignJ  = flag.String("assign-json", "", "run the batch-assignment benchmarks and write before/after results to this file (a fresh file records the brute-force scan as baseline)")
		checkAsg = flag.String("check-assign", "", "run the batch-assignment benchmarks and compare against the current rows of this file; exit 1 on regression")
		predJ    = flag.String("predict-json", "", "run the prediction-engine benchmarks (forecast cache, rollouts, stationary simulate) and write before/after results to this file (a fresh file records the uncached path as baseline)")
		checkPrd = flag.String("check-predict", "", "run the prediction-engine benchmarks and compare against the current rows of this file; exit 1 on regression")
		tol      = flag.Float64("tolerance", 0.25, "allowed fractional ns/op growth over the file's current rows before a -check* mode fails (allocs/op must never grow)")
		metrics  = flag.Bool("metrics", false, "collect experiment metrics in a registry and dump it (Prometheus text) at end of run")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this address while the run lasts (e.g. localhost:6060)")
		matrixR  = flag.Bool("matrix", false, "run the scenario-generator × assigner benchmark matrix and write -matrix-json and -matrix-md")
		matrixJ  = flag.String("matrix-json", "BENCH_matrix.json", "matrix output file for -matrix")
		matrixMD = flag.String("matrix-md", "MATRIX.md", "human-readable matrix table for -matrix")
		matrixSc = flag.String("matrix-scale", "", "comma-separated matrix scales: smoke, quick, full (default smoke,quick for -matrix; smoke for -check-matrix)")
		checkMx  = flag.String("check-matrix", "", "run a fresh matrix at -matrix-scale and diff it against this committed file; exit 1 on out-of-tolerance drift")
		matrixFr = flag.String("matrix-fresh", "", "with -check-matrix, also write the fresh cells to this file (CI uploads it on failure)")
		replayD  = flag.String("replay", "", "replay a recorded event log directory (tampserver -wal-dir or tampsim -record) through -assigner and report per-batch plan agreement")
		assignN  = flag.String("assigner", "PPI", "assigner for -replay: PPI, KM, UB, LB, GGPSO")
		modelsF  = flag.String("models", "", "predictor bundle (SaveModels format) for -replay counterfactual batches; omitted = stand-still forecasts")
	)
	flag.Parse()

	if *list {
		experiments.Describe(os.Stdout)
		return
	}
	if *replayD != "" {
		if err := runReplay(*replayD, *assignN, *modelsF, *par, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "tampbench:", err)
			os.Exit(1)
		}
		return
	}
	if *matrixR || *checkMx != "" {
		if err := runMatrix(*matrixR, *checkMx, *matrixJ, *matrixMD, *matrixSc, *matrixFr, *par); err != nil {
			fmt.Fprintln(os.Stderr, "tampbench:", err)
			os.Exit(1)
		}
		return
	}
	if *pprofA != "" {
		go func() {
			fmt.Fprintln(os.Stderr, "tampbench: pprof:", http.ListenAndServe(*pprofA, nil))
		}()
		fmt.Printf("pprof listening on http://%s/debug/pprof/\n", *pprofA)
	}
	if *check != "" || *checkAsg != "" || *checkPrd != "" {
		pinSingleP()
		// Each guard runs its suite once, feeding both the verdict and the
		// optional artifact; a regression in either suite fails the process.
		failed := false
		runCheck := func(path string, cur []perf.Result, artifact string, write func(string, []perf.Result) (perf.File, error)) {
			base, err := perf.LoadFile(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tampbench:", err)
				os.Exit(1)
			}
			if artifact != "" {
				if _, err := write(artifact, cur); err != nil {
					fmt.Fprintln(os.Stderr, "tampbench:", err)
					os.Exit(1)
				}
				fmt.Printf("wrote %s\n", artifact)
			}
			report, ok := perf.CheckAgainst(base, cur, *tol)
			fmt.Print(report)
			if !ok {
				fmt.Fprintf(os.Stderr, "tampbench: benchmark regression against %s (tolerance %.0f%%)\n", path, *tol*100)
				failed = true
				return
			}
			fmt.Printf("no regression against %s (tolerance %.0f%%)\n", path, *tol*100)
		}
		if *check != "" {
			runCheck(*check, perf.Run(), *jsonOut, perf.WriteJSONWith)
		}
		if *checkAsg != "" {
			runCheck(*checkAsg, perf.RunAssign(), *assignJ, perf.WriteAssignJSONWith)
		}
		if *checkPrd != "" {
			cur, err := perf.RunPredict()
			if err != nil {
				fmt.Fprintln(os.Stderr, "tampbench:", err)
				os.Exit(1)
			}
			runCheck(*checkPrd, cur, *predJ, perf.WritePredictJSONWith)
		}
		if failed {
			os.Exit(1)
		}
		return
	}
	if *jsonOut != "" || *assignJ != "" || *predJ != "" {
		pinSingleP()
		if *jsonOut != "" {
			f, err := perf.WriteJSON(*jsonOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tampbench:", err)
				os.Exit(1)
			}
			fmt.Print(perf.Format(f))
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		if *assignJ != "" {
			f, err := perf.WriteAssignJSON(*assignJ)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tampbench:", err)
				os.Exit(1)
			}
			fmt.Print(perf.Format(f))
			fmt.Printf("wrote %s\n", *assignJ)
		}
		if *predJ != "" {
			f, err := perf.WritePredictJSON(*predJ)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tampbench:", err)
				os.Exit(1)
			}
			fmt.Print(perf.Format(f))
			fmt.Printf("wrote %s\n", *predJ)
		}
		return
	}
	if *expFlag == "" {
		fmt.Fprintln(os.Stderr, "tampbench: -exp required (use -list to see experiments)")
		os.Exit(2)
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick
	case "full":
		sc = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "tampbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	sc.Parallelism = *par
	effective := *par
	if effective <= 0 {
		effective = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("parallelism: %d goroutines (GOMAXPROCS %d)\n", effective, runtime.GOMAXPROCS(0))

	// Ctrl-C abandons the current experiment cleanly instead of killing the
	// process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
		ctx = obs.WithRegistry(ctx, reg)
	}

	var ids []string
	if *expFlag == "all" {
		ids = experiments.IDs()
	} else {
		ids = strings.Split(*expFlag, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := experiments.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "tampbench: unknown experiment %q\n", id)
			os.Exit(2)
		}
		fmt.Printf("== %s (%s scale) ==\n", e.Title, sc.Name)
		start := time.Now()
		var uses []experiments.ForecastUse
		var err error
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "tampbench:", err)
				os.Exit(1)
			}
			f, err := os.Create(filepath.Join(*csvDir, id+".csv"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "tampbench:", err)
				os.Exit(1)
			}
			if uses, err = e.RunCSV(ctx, sc, f); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, "tampbench:", err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("wrote %s\n", filepath.Join(*csvDir, id+".csv"))
		} else if *seeds > 1 {
			list := make([]int64, *seeds)
			for i := range list {
				list[i] = sc.Seed + int64(i)
			}
			if uses, err = e.RunSeeds(ctx, sc, list, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "tampbench:", err)
				os.Exit(1)
			}
		} else {
			if uses, err = e.Run(ctx, sc, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "tampbench:", err)
				os.Exit(1)
			}
		}
		for _, u := range uses {
			fmt.Println(u)
		}
		fmt.Printf("[%s finished in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if reg != nil {
		fmt.Printf("== metric registry (Prometheus text) ==\n%s", reg.Dump())
	}
}

// pinSingleP puts the kernel suites on one P, the way bench/ runs, and says
// so in the report. The committed BENCH_*.json rows are single-P
// measurements and the assigners' worker pool allocates per extra goroutine,
// so the exact allocs/op rule only compares like with like at GOMAXPROCS 1.
func pinSingleP() {
	runtime.GOMAXPROCS(1)
	fmt.Printf("GOMAXPROCS %d (pinned for the kernel suites)\n", runtime.GOMAXPROCS(0))
}

// runMatrix is the -matrix / -check-matrix mode: run the scenario-generator
// × assigner cross-product (Ctrl-C cancels between simulations) and either
// persist it as the committed BENCH_matrix.json + MATRIX.md or diff it
// against the committed cells with per-metric tolerances.
func runMatrix(generate bool, checkPath, jsonPath, mdPath, scaleCSV, freshPath string, par int) error {
	if scaleCSV == "" {
		if generate {
			scaleCSV = "smoke,quick"
		} else {
			scaleCSV = "smoke"
		}
	}
	var scales []experiments.Scale
	for _, name := range strings.Split(scaleCSV, ",") {
		sc, err := experiments.MatrixScale(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		sc.Parallelism = par
		scales = append(scales, sc)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	cells, err := experiments.RunMatrix(ctx, scales, os.Stderr)
	if err != nil {
		return err
	}
	experiments.WriteMatrixTable(os.Stdout, cells)
	fmt.Printf("matrix: %d cells in %v\n", len(cells), time.Since(start).Round(time.Millisecond))

	if checkPath != "" {
		if freshPath != "" {
			if err := experiments.WriteMatrixJSON(freshPath, cells); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", freshPath)
		}
		committed, err := experiments.LoadMatrix(checkPath)
		if err != nil {
			return err
		}
		report, ok := experiments.CheckMatrix(committed, cells)
		fmt.Print(report)
		if !ok {
			return fmt.Errorf("matrix drift against %s — if intentional, regenerate with `make matrix`", checkPath)
		}
		fmt.Printf("no drift against %s\n", checkPath)
		return nil
	}
	if err := experiments.WriteMatrixJSON(jsonPath, cells); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", jsonPath)
	f, err := os.Create(mdPath)
	if err != nil {
		return err
	}
	experiments.WriteMatrixMD(f, cells)
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", mdPath)
	return nil
}

// forecastNote says whether batches roll the mobility models out, so a zero
// predict_cache_misses under LB or UB is explained where it is seen.
func forecastNote(a assign.Assigner) string {
	if assign.ReadsForecast(a) {
		return "forecasts: on"
	}
	return fmt.Sprintf("forecasts: off (assigner %s does not read predicted trajectories)", a.Name())
}

// runReplay feeds a recorded platform event log through the named assigner
// and prints the per-batch counterfactual plans against the live run.
func runReplay(dir, assigner, modelsPath string, par int, seed int64) error {
	var a assign.Assigner
	switch assigner {
	case "PPI":
		a = assign.PPI{A: predict.DefaultMatchRadius, Parallelism: par}
	case "KM":
		a = assign.KM{Parallelism: par}
	case "UB":
		a = assign.UB{}
	case "LB":
		a = assign.LB{}
	case "GGPSO":
		a = assign.GGPSO{Seed: seed}
	default:
		return fmt.Errorf("unknown assigner %q", assigner)
	}
	opts := replay.Options{Assigner: a, Parallelism: par}
	if modelsPath != "" {
		f, err := os.Open(modelsPath)
		if err != nil {
			return err
		}
		models, err := predict.LoadModels(f)
		f.Close()
		if err != nil {
			return err
		}
		opts.Models = models
		fmt.Printf("loaded %d worker models from %s\n", len(models), modelsPath)
	}
	rep, err := replay.Run(context.Background(), dir, opts)
	if err != nil {
		return err
	}
	if rep.Torn != nil {
		fmt.Printf("warning: log tail corrupt (%v); replaying the valid prefix\n", rep.Torn)
	}
	fmt.Printf("replayed %d events (from seq %d) through %s in %v\n",
		rep.Events, rep.StartSeq, rep.Assigner, rep.Duration.Round(time.Microsecond))
	fmt.Println(forecastNote(a))
	for _, bp := range rep.Batches {
		mark := ""
		if bp.Degraded {
			mark = "  [live batch degraded]"
		}
		fmt.Printf("  batch @ seq %-6d tick %-4d live %-3d replay %-3d agreed %-3d%s\n",
			bp.Seq, bp.Tick, len(bp.Live), len(bp.Replay), bp.Agreed, mark)
	}
	fmt.Printf("plan agreement: %d/%d live pairs re-proposed (%.1f%%); replay proposed %d pairs\n",
		rep.AgreedPairs, rep.LivePairs, rep.AgreementRate()*100, rep.ReplayPairs)
	return nil
}
