// Command tampgen generates a synthetic workload and dumps it for
// inspection: worker routines as CSV, tasks as CSV, and the workload
// summary as JSON.
//
// Usage:
//
//	tampgen -workload 1 -out /tmp/wl1            # writes workers.csv, tasks.csv, summary.json
//	tampgen -workload 2 -tasks 500 -out /tmp/wl2
//
// With -drive the workload is replayed live against a serving endpoint (a
// tamprouter or a bare tampserver) instead of dumped: concurrent task
// submissions, worker location reports, offer accepts, and tick/batch
// pacing, with per-operation latency percentiles and an error-budget
// summary written to drive_report.json and stdout:
//
//	tampgen -tasks 200 -drive http://127.0.0.1:8090 -drive-conc 8 -out /tmp/run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/spatialcrowd/tamp"
	"github.com/spatialcrowd/tamp/internal/ingest"
	"github.com/spatialcrowd/tamp/internal/viz"
)

func main() {
	var (
		workload = flag.Int("workload", 1, "workload family: 1 or 2")
		workers  = flag.Int("workers", 30, "number of established workers")
		tasks    = flag.Int("tasks", 1000, "number of test tasks")
		seed     = flag.Int64("seed", 1, "generation seed")
		out      = flag.String("out", ".", "output directory")
		showMap  = flag.Bool("viz", false, "print an ASCII map of the workload (trajectory density, x = tasks, O = hotspots)")
		drive    = flag.String("drive", "", "replay the workload as live load against this base URL (router or server) instead of dumping CSV")
		driveC   = flag.Int("drive-conc", 8, "with -drive, concurrent task submitters")
	)
	flag.Parse()

	kind := tamp.Workload1
	if *workload == 2 {
		kind = tamp.Workload2
	}
	p := tamp.DefaultWorkloadParams(kind)
	p.Seed = *seed
	p.NumWorkers = *workers
	p.NewWorkers = *workers / 10
	p.NumTestTasks = *tasks
	w := tamp.GenerateWorkload(p)

	if *showMap {
		viz.WorkloadMap(w, 100, 30).Render(os.Stdout)
	}

	if *drive != "" {
		if _, err := runDrive(*drive, w, *driveC, *tasks, *out); err != nil {
			fatal(err)
		}
		return
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	err := writeFile(filepath.Join(*out, "workers.csv"), func(f io.Writer) error {
		return ingest.WriteWorkersCSV(f, w.Workers)
	})
	if err != nil {
		fatal(err)
	}
	err = writeFile(filepath.Join(*out, "tasks.csv"), func(f io.Writer) error {
		return ingest.WriteTasksCSV(f, w.TestTasks)
	})
	if err != nil {
		fatal(err)
	}
	if err := writeSummary(filepath.Join(*out, "summary.json"), w); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote workers.csv, tasks.csv, summary.json to %s\n", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tampgen:", err)
	os.Exit(1)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSummary(path string, w *tamp.Workload) error {
	summary := map[string]any{
		"kind":       w.Params.Kind.String(),
		"seed":       w.Params.Seed,
		"workers":    len(w.Workers),
		"newWorkers": w.Params.NewWorkers,
		"tasks":      len(w.TestTasks),
		"histTasks":  len(w.HistTasks),
		"pois":       len(w.POIs),
		"hotspots":   len(w.Hotspots),
		"trainDays":  w.Params.TrainDays,
		"testDays":   w.Params.TestDays,
		"gridCols":   w.Params.Grid.Cols,
		"gridRows":   w.Params.Grid.Rows,
	}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
