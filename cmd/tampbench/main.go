// Command tampbench regenerates the tables and figures of the paper's
// evaluation (§IV and Appendix C) on the synthetic workloads, the benchmark
// matrix, and the committed BENCH_*.json files.
//
// Usage:
//
//	tampbench -list
//	tampbench -exp fig6,fig7 -scale full
//	tampbench -exp matrix -scale quick -seeds 3        # mean ± std over seeds 1–3
//	tampbench -record BENCH_nn.json                    # re-measure a kernel guard's current rows
//	tampbench -check BENCH_nn.json,BENCH_assign.json,BENCH_predict.json -tolerance 0.25
//	tampbench -record BENCH_matrix.json                # regenerate it and MATRIX.md beside it
//	tampbench -check BENCH_matrix.json -check-out DIR  # any difference fails; DIR gets the fresh files
//	tampbench -replay /var/lib/tamp/wal -assigner KM   # re-run a recorded log offline
//
// Each mode (-list, -replay, -check/-record, -exp) reads its own flags and
// refuses, by name and with exit 2, any other flag set on the command line.
//
// -check and -record run at GOMAXPROCS 1. A kernel-guard file is measured
// by the internal/perf suite whose file has its base name; a fresh -record
// file also measures each row's before-side. BENCH_matrix.json holds the
// "matrix" experiment (scenario generators × the assigner zoo) at the smoke
// and quick scales and seed 1; -check names each cell and field that moved.
//
// -replay feeds an event log recorded by a durable server (tampserver
// -wal-dir) or a recording simulation (tampsim -record) through any
// assigner the matrix runs but UB, which plans on true trajectories that a
// log does not hold (refused, exit 2): the replayed state follows the live run event
// for event, while at each batch the chosen assigner produces a
// counterfactual plan over the exact batch input the live platform saw,
// reported pair-for-pair against the live plan. Repeated replays are
// bit-identical. It ends with the line tampsim ends each simulation with,
// "forecasts: N rolled out, M reused", the pass's own memo traffic.
//
// Scales "smoke" and "quick" take seconds per experiment; "full" takes
// minutes and produces the paper-shaped trends recorded in EXPERIMENTS.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/experiments"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/perf"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/replay"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments and exit")
		expFlag  = flag.String("exp", "", "comma-separated experiment ids, or 'all'")
		scale    = flag.String("scale", "quick", "experiment scale: smoke, quick or full")
		seed     = flag.Int64("seed", 0, "override the workload seed (0 keeps the scale default); with -replay, GGPSO's seed")
		csvDir   = flag.String("csv", "", "also write <dir>/<exp>.csv with machine-readable rows (one seed: does not combine with -seeds)")
		seeds    = flag.Int("seeds", 1, "run each experiment over this many seeds and report mean ± std")
		par      = flag.Int("par", 0, "worker pool size for training, simulation, and multi-seed fan-out (0 = all cores)")
		check    = flag.String("check", "", "comma-separated committed files (BENCH_nn.json, BENCH_assign.json, BENCH_predict.json, BENCH_matrix.json): regenerate each and compare; exit 1 on a kernel regression or any matrix difference")
		record   = flag.String("record", "", "comma-separated committed files: regenerate and write each (a kernel-guard file keeps its baseline and note, a fresh one also measures each row's before-side; BENCH_matrix.json also writes MATRIX.md beside it)")
		checkOut = flag.String("check-out", "", "with -check, write each fresh run to this directory as the committed file would be written")
		tol      = flag.Float64("tolerance", 0.25, "with -check, allowed fractional ns/op growth over a kernel-guard file's current rows (allocs/op must never grow)")
		metrics  = flag.Bool("metrics", false, "collect experiment metrics in a registry and dump it (Prometheus text) at end of run")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this address while the run lasts (e.g. localhost:6060)")
		replayD  = flag.String("replay", "", "replay a recorded event log directory (tampserver -wal-dir or tampsim -record) through -assigner and report per-batch plan agreement")
		assignN  = flag.String("assigner", "PPI", "assigner for -replay: "+strings.Join(experiments.MatrixAssigners, ", "))
		modelsF  = flag.String("models", "", "predictor bundle (SaveModels format) for -replay counterfactual batches; omitted = stand-still forecasts")
	)
	flag.Parse()

	// Ctrl-C abandons the current run cleanly instead of killing the
	// process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch {
	case *list:
		refuseUnread("-list", "list")
		experiments.Describe(os.Stdout)
		return
	case *replayD != "":
		refuseUnread("-replay", "replay", "assigner", "models", "par", "seed")
		if *assignN == "UB" {
			refuse("-replay cannot run UB: a recorded log holds no true trajectories (Worker.Actual) for UB to plan on")
		}
		exitOn(runReplay(ctx, *replayD, *assignN, *modelsF, *par, *seed))
		return
	case *check != "" || *record != "":
		reads := []string{"record", "pprof"}
		if *check != "" {
			reads = append(reads, "check", "check-out", "tolerance")
		}
		refuseUnread("-check or -record", reads...)
	default:
		refuseUnread("-exp", "exp", "scale", "seed", "seeds", "csv", "par", "metrics", "pprof")
	}
	if *pprofA != "" {
		go func() {
			fmt.Fprintln(os.Stderr, "tampbench: pprof:", http.ListenAndServe(*pprofA, nil))
		}()
		fmt.Printf("pprof listening on http://%s/debug/pprof/\n", *pprofA)
	}
	if *check != "" || *record != "" {
		pinSingleP()
		exitOn(runGuards(ctx, *check, *record, *checkOut, *tol))
		return
	}
	if *expFlag == "" {
		refuse("-exp required (use -list to see experiments)")
	}
	if *csvDir != "" && *seeds > 1 {
		refuse("-csv and -seeds do not combine: a CSV holds one seed's rows")
	}
	sc, err := experiments.ScaleNamed(*scale)
	if err != nil {
		refuse("%v", err)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	sc.Parallelism = *par
	effective := *par
	if effective <= 0 {
		effective = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("parallelism: %d goroutines (GOMAXPROCS %d), nn kernels: %s\n", effective, runtime.GOMAXPROCS(0), nn.KernelPath())

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
			refuse("unknown experiment %q", id)
		}
		fmt.Printf("== %s (%s scale) ==\n", e.Title, sc.Name)
		start := time.Now()
		var uses []experiments.ForecastUse
		if *csvDir != "" {
			exitOn(os.MkdirAll(*csvDir, 0o755))
			f, err := os.Create(filepath.Join(*csvDir, id+".csv"))
			exitOn(err)
			uses, err = e.RunCSV(ctx, sc, f)
			exitOn(errors.Join(err, f.Close()))
			fmt.Printf("wrote %s\n", f.Name())
		} else if *seeds > 1 {
			list := make([]int64, *seeds)
			for i := range list {
				list[i] = sc.Seed + int64(i)
			}
			uses, err = e.RunSeeds(ctx, sc, list, os.Stdout)
		} else {
			uses, err = e.Run(ctx, sc, os.Stdout)
		}
		exitOn(err)
		for _, u := range uses {
			fmt.Println(u)
		}
		fmt.Printf("[%s finished in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if reg != nil {
		fmt.Printf("== metric registry (Prometheus text) ==\n%s", reg.Dump())
	}
}

// refuse ends the run with exit 2: tampbench does not run the command line.
func refuse(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tampbench: "+format+"\n", args...)
	os.Exit(2)
}

// exitOn ends the run with exit 1 on err.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tampbench:", err)
		os.Exit(1)
	}
}

// refuseUnread exits 2, naming it, when the command line set a flag that
// mode does not read: a flag set and then ignored would read as honoured.
func refuseUnread(mode string, reads ...string) {
	flag.Visit(func(f *flag.Flag) {
		if !slices.Contains(reads, f.Name) {
			refuse("-%s does not apply to %s", f.Name, mode)
		}
	})
}

// pinSingleP puts the committed files' runs on one P, the way bench/ runs,
// and says so in the report. The committed BENCH_*.json rows are single-P
// measurements and the assigners' worker pool allocates per extra
// goroutine, so the exact allocs/op rule only compares like with like at
// GOMAXPROCS 1; the matrix's cells are the same at every parallelism.
func pinSingleP() {
	runtime.GOMAXPROCS(1)
	fmt.Printf("GOMAXPROCS %d (pinned for the committed files), nn kernels: %s\n", runtime.GOMAXPROCS(0), nn.KernelPath())
}

// matrixFile is the committed file regenerated from the matrix experiment.
const matrixFile = "BENCH_matrix.json"

// runGuards is the -check / -record mode over the committed files: the
// benchmark matrix, or a kernel-guard file measured by the perf suite whose
// file has its base name. Every checked file runs even after one fails.
func runGuards(ctx context.Context, check, record, outDir string, tol float64) error {
	var failed []string
	for _, path := range splitList(check) {
		save, ok, err := checkFile(ctx, path, tol)
		if err != nil {
			return err
		}
		if outDir != "" {
			out := filepath.Join(outDir, filepath.Base(path))
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			if err := save(out); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", out)
		}
		if !ok {
			failed = append(failed, path)
		}
	}
	for _, path := range splitList(record) {
		if err := recordFile(ctx, path); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	if len(failed) > 0 {
		return fmt.Errorf("check failed against %s", strings.Join(failed, ", "))
	}
	return nil
}

// checkFile regenerates the committed file at path, prints how the fresh
// run compares, and returns whether it passes and how to save the fresh
// run as the committed file would be written.
func checkFile(ctx context.Context, path string, tol float64) (save func(string) error, ok bool, err error) {
	if filepath.Base(path) == matrixFile {
		cells, err := runMatrix(ctx)
		if err != nil {
			return nil, false, err
		}
		diffs, err := experiments.DiffMatrixFiles(path, cells)
		if err != nil {
			return nil, false, err
		}
		for _, d := range diffs {
			fmt.Println(d)
		}
		fmt.Printf("%s: %d differences from a fresh run\n", path, len(diffs))
		if len(diffs) > 0 {
			fmt.Println("a change that means to move cells regenerates the file with `make matrix`")
		}
		return func(out string) error { return experiments.WriteMatrixFiles(out, cells) }, len(diffs) == 0, nil
	}
	s, err := perf.SuiteFor(path)
	if err != nil {
		return nil, false, err
	}
	fresh, report, ok, err := perf.Check(path, s, tol)
	if err != nil {
		return nil, false, err
	}
	fmt.Print(report)
	if ok {
		fmt.Printf("no regression against %s (tolerance %.0f%%)\n", path, tol*100)
	}
	return fresh.Save, ok, nil
}

func recordFile(ctx context.Context, path string) error {
	if filepath.Base(path) == matrixFile {
		cells, err := runMatrix(ctx)
		if err != nil {
			return err
		}
		return experiments.WriteMatrixFiles(path, cells)
	}
	s, err := perf.SuiteFor(path)
	if err != nil {
		return err
	}
	f, err := perf.Record(path, s)
	fmt.Print(perf.Format(f))
	return err
}

// runMatrix runs the committed matrix's scales and prints the cells and
// each model set's forecast use.
func runMatrix(ctx context.Context) ([]experiments.MatrixCell, error) {
	cells, uses, err := experiments.RunMatrix(ctx, experiments.MatrixScales)
	if err != nil {
		return nil, err
	}
	experiments.WriteMatrixTable(os.Stdout, "Benchmark matrix", cells)
	for _, u := range uses {
		fmt.Println(u)
	}
	return cells, nil
}

func splitList(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' })
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
func runReplay(ctx context.Context, dir, assigner, modelsPath string, par int, seed int64) error {
	if !slices.Contains(experiments.MatrixAssigners, assigner) {
		return fmt.Errorf("unknown assigner %q (want one of %s)", assigner, strings.Join(experiments.MatrixAssigners, ", "))
	}
	a := experiments.MakeAssigner(assigner, experiments.Scale{Parallelism: par, Seed: seed})
	reg := obs.NewRegistry()
	opts := replay.Options{Assigner: a, Parallelism: par, Registry: reg}
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
	rep, err := replay.Run(ctx, dir, opts)
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
	fmt.Printf("forecasts: %d rolled out, %d reused\n",
		reg.Counter("predict_cache_misses").Value(), reg.Counter("predict_cache_hits").Value())
	return nil
}
