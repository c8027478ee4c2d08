// Package tamp is a Go implementation of Task Assignment in Mobility
// Prediction-aware Spatial Crowdsourcing (TAMP), reproducing the system of
// Li et al., "Effective Task Assignment in Mobility Prediction-Aware
// Spatial Crowdsourcing" (ICDE 2025).
//
// The library covers the paper end to end:
//
//   - Worker-specific mobility prediction via game-theory-based multi-level
//     learning-task clustering (GTMC) and task-adaptive meta-learning (TAML)
//     on a from-scratch LSTM encoder–decoder — the GTTAML algorithm — plus
//     the MAML and CTML baselines.
//   - The task-assignment-oriented weighted loss that aligns prediction
//     training with assignment quality.
//   - The matching-rate metric and the prediction performance-involved
//     assignment algorithm (PPI), alongside the UB, LB, KM, and GGPSO
//     comparison algorithms.
//   - A batch-mode platform simulator with worker accept/reject semantics,
//     and seeded synthetic workload generators standing in for the paper's
//     Porto+Didi and Gowalla+Foursquare datasets.
//
// # Quick start
//
//	ctx := context.Background()
//	w := tamp.GenerateWorkload(tamp.DefaultWorkloadParams(tamp.Workload1))
//	pred, err := tamp.TrainPredictors(ctx, w, tamp.TrainOptions{WeightedLoss: true})
//	if err != nil { ... }
//	metrics, err := tamp.Simulate(ctx, w, pred, tamp.NewPPI())
//	if err != nil { ... }
//	fmt.Println(metrics.CompletionRate(), metrics.RejectionRate())
//
// Training and simulation are internally parallel (see TrainOptions.
// Parallelism and Simulation.Parallelism; 0 uses every core) and
// deterministic: a fixed seed produces bit-identical results at any
// parallelism level. Cancelling ctx stops either stage promptly.
//
// The cmd/tampbench binary regenerates every table and figure of the
// paper's evaluation; see DESIGN.md and EXPERIMENTS.md.
package tamp

import (
	"context"
	"io"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/fault"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/platform"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/traj"
	"github.com/spatialcrowd/tamp/internal/wal"
)

// Core spatial types.
type (
	// Point is a location in grid coordinates (one cell = 0.2 km).
	Point = geo.Point
	// Grid is the discrete city grid (the paper uses 100×50).
	Grid = geo.Grid
	// POI is a typed point of interest used by the spatial similarity.
	POI = geo.POI
	// Routine is a worker's timestamped movement trace.
	Routine = traj.Routine
)

// Task and assignment types.
type (
	// Task is a spatial task τ = (location, deadline).
	Task = assign.Task
	// AssignWorker is the assignment-time view of a crowd worker.
	AssignWorker = assign.Worker
	// Pair is one matched (task, worker) assignment.
	Pair = assign.Pair
	// Assigner produces a batch assignment plan.
	Assigner = assign.Assigner
)

// Workload generation.
type (
	// WorkloadKind selects the synthetic workload family.
	WorkloadKind = dataset.Kind
	// WorkloadParams configures workload generation.
	WorkloadParams = dataset.Params
	// Workload is a generated experimental workload.
	Workload = dataset.Workload
	// WorkloadWorker is one synthetic crowd worker with daily routines.
	WorkloadWorker = dataset.Worker
)

// The two synthetic workload families of the evaluation.
const (
	// Workload1 mirrors Porto taxi workers + Didi ride-hailing tasks.
	Workload1 = dataset.Workload1
	// Workload2 mirrors Gowalla check-in workers + Foursquare venue tasks.
	Workload2 = dataset.Workload2
)

// Prediction stage.
type (
	// TrainOptions configures offline mobility prediction training.
	TrainOptions = predict.Options
	// Predictors is the trained prediction stage.
	Predictors = predict.Result
	// WorkerModel is one worker's personalized mobility predictor.
	WorkerModel = predict.WorkerModel
	// PredEval aggregates RMSE / MAE / matching rate.
	PredEval = predict.EvalResult
)

// Simulation stage.
type (
	// Metrics aggregates a simulation run: completion, rejection, cost,
	// and assignment running time.
	Metrics = platform.Metrics
	// Simulation configures a platform run.
	Simulation = platform.Run
	// FaultStats counts the degraded-mode events a chaos run absorbed.
	FaultStats = platform.FaultStats
	// FaultConfig sets the deterministic fault-injection rates for
	// SimulateChaos (worker churn, dropped/noised location reports,
	// predictor failures, delayed accept/reject decisions).
	FaultConfig = fault.Config
)

// Meta-learning algorithm names accepted by TrainOptions.Algorithm.
const (
	AlgMAML     = "MAML"
	AlgCTML     = "CTML"
	AlgGTTAMLGT = "GTTAML-GT"
	AlgGTTAML   = "GTTAML"
)

// DefaultWorkloadParams returns the paper's default experimental setting
// (Table III) at laptop scale for the given workload family.
func DefaultWorkloadParams(kind WorkloadKind) WorkloadParams {
	return dataset.Defaults(kind)
}

// GenerateWorkload deterministically builds a workload from its parameters.
func GenerateWorkload(p WorkloadParams) *Workload { return dataset.Generate(p) }

// TrainPredictors runs the offline stage: meta-train mobility models for
// every worker (cold-start workers adapt through learning-task-tree
// placement) and measure per-worker matching rates. Cancelling ctx abandons
// training and returns ctx.Err().
func TrainPredictors(ctx context.Context, w *Workload, opts TrainOptions) (*Predictors, error) {
	return predict.Train(ctx, w, opts)
}

// Simulate runs the online batch assignment stage over the workload's test
// horizon with the given assigner and trained predictors. Cancelling ctx
// stops the simulation at the next tick boundary, returning the partial
// metrics alongside ctx.Err().
//
// Simulate, SimulateRecorded and SimulateChaos memoize forecasts on pred
// (Predictors.Forecasts): a second simulation over the same predictors —
// another assigner, a chaos pass — rolls a model out only for the windows
// no earlier one saw, with results bit-identical to recomputing. Runs over
// one Predictors must therefore not overlap in time, which the models
// already required.
func Simulate(ctx context.Context, w *Workload, pred *Predictors, a Assigner) (Metrics, error) {
	run := runOver(w, pred, a)
	return run.Simulate(ctx)
}

// runOver is a platform run over the predictors' models and the forecast
// memo they own.
func runOver(w *Workload, pred *Predictors, a Assigner) platform.Run {
	return platform.Run{Workload: w, Models: pred.Models, Forecasts: pred.Forecasts, Assigner: a}
}

// SimulateRecorded is Simulate with every platform event — registrations,
// reports, batch plans, decisions, tick advances — persisted to a
// write-ahead log in dir (which should be fresh or hold a prior recording's
// continuation). The recorded log replays offline through any assigner via
// internal/replay or `tampbench -replay dir -assigner KM`, and is the same
// event vocabulary a durable server (`tampserver -wal-dir`) records.
func SimulateRecorded(ctx context.Context, w *Workload, pred *Predictors, a Assigner, dir string) (Metrics, error) {
	// One fsync per tick-sized burst, not per event: the recorder is a
	// simulation artifact, not a durability contract; Close flushes the tail.
	log, _, err := wal.Open(dir, wal.Options{SyncEvery: 256})
	if err != nil {
		return Metrics{}, err
	}
	run := runOver(w, pred, a)
	run.EventSink = func(ev core.Event) error {
		b, err := core.EncodeEvent(ev)
		if err != nil {
			return err
		}
		_, err = log.Append(b)
		return err
	}
	m, simErr := run.Simulate(ctx)
	if cerr := log.Close(); simErr == nil {
		simErr = cerr
	}
	return m, simErr
}

// SimulateChaos is Simulate under a deterministic fault injector: workers
// churn offline, location reports drop or arrive GPS-noised, predictors
// fail (degrading to stand-still forecasts), and accept/reject decisions
// land late — all as pure functions of fc.Seed, so a chaos run is exactly
// reproducible. The degraded-mode events survived are reported in
// Metrics.Faults.
func SimulateChaos(ctx context.Context, w *Workload, pred *Predictors, a Assigner, fc FaultConfig) (Metrics, error) {
	run := runOver(w, pred, a)
	run.Faults = fault.New(fc)
	return run.Simulate(ctx)
}

// NewPPI returns the paper's Prediction Performance-Involved assignment
// algorithm (Algorithm 4) with default parameters.
func NewPPI() Assigner { return assign.PPI{A: predict.DefaultMatchRadius} }

// NewKM returns the plain prediction-based KM matching baseline.
func NewKM() Assigner { return assign.KM{} }

// NewUB returns the oracle upper bound (assigns on true trajectories).
func NewUB() Assigner { return assign.UB{} }

// NewLB returns the lower bound (assigns on current locations only).
func NewLB() Assigner { return assign.LB{} }

// NewGGPSO returns the genetic assignment baseline of [11].
func NewGGPSO(seed int64) Assigner { return assign.GGPSO{Seed: seed} }

// LoadModels reads per-worker predictors previously written with
// Predictors.SaveModels, so the offline stage can train once and the online
// platform can start without retraining.
func LoadModels(r io.Reader) (map[int]*WorkerModel, error) { return predict.LoadModels(r) }

// KMToCells converts kilometres to grid cells.
func KMToCells(km float64) float64 { return geo.KMToCells(km) }

// CellsToKM converts grid cells to kilometres.
func CellsToKM(cells float64) float64 { return geo.CellsToKM(cells) }
