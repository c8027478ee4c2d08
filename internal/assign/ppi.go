package assign

import (
	"context"
	"math"
	"slices"

	"github.com/spatialcrowd/tamp/internal/obs"
)

// PPI is the Prediction Performance-Involved task assignment algorithm
// (Algorithm 4). It stages the matching by the expected completion
// probability derived from each worker's matching rate (Theorem 2):
//
//  1. pairs whose confidence |B|·MR reaches 1 are matched first by KM;
//  2. the remaining confident pairs are matched in descending |B|·MR order,
//     in KM batches of ε;
//  3. leftover tasks and workers fall back to a plain prediction-based KM.
type PPI struct {
	// A is the matching-rate distance threshold a of Def. 7, in cells:
	// predicted and true locations within A count as matched, and Theorem 2
	// requires dis(l̂, τ.l) + a ≤ min(d/2, d^t) for a confident pair.
	A float64
	// Epsilon is ε, the KM batch size of the second stage. Values ≤ 0
	// default to 8.
	Epsilon int
	// Parallelism bounds the pool used by AssignContext to build the
	// candidate graphs of stages 1 and 3 (0 = GOMAXPROCS). The staged KM
	// matching itself stays sequential; the plan is identical at every
	// parallelism level.
	Parallelism int
}

// Name implements Assigner.
func (p PPI) Name() string { return "PPI" }

// candidate records one (B, τ, w) entry of Algorithm 4's first stage.
type candidate struct {
	task, worker int     // indexes into the slices
	minB         float64 // min distance in B
	conf         float64 // |B|·MR
}

// cmpCandidate is the stage-2 traversal order: descending confidence with
// (task, worker) index as the tie-break — a strict total order, so the
// sorted sequence is unique. NaN confidence sorts last (after every real
// value) to keep the comparator consistent.
func cmpCandidate(a, b candidate) int {
	an, bn := math.IsNaN(a.conf), math.IsNaN(b.conf)
	switch {
	case an && bn:
	case an:
		return 1
	case bn:
		return -1
	case a.conf > b.conf:
		return -1
	case a.conf < b.conf:
		return 1
	}
	if a.task != b.task {
		return a.task - b.task
	}
	return a.worker - b.worker
}

// sortPending orders stage-2 candidates by cmpCandidate. slices.SortFunc on
// the typed slice allocates nothing, unlike the sort.Slice closure it
// replaced (one interface header + closure per batch); the steady-state
// alloc gate covers it.
func sortPending(pending []candidate) {
	slices.SortFunc(pending, cmpCandidate)
}

// edgeCounters bundles the tamp_assign_edges_total series the assigners
// bump every batch; resolved once per registry through Memo because a
// labelled lookup per batch would rival a small batch's matching work.
// The candidates/pruned stages expose the kernel's effect: candidates is
// the number of distinct (task, worker) pairs that reached the exact
// feasibility predicate, pruned is the all-pairs count minus that (never
// negative: a pair counts once however many of its points probed it).
type edgeCounters struct {
	confident, pending, fallback, km *obs.Counter
	ppiCandidates, ppiPruned         *obs.Counter
	kmCandidates, kmPruned           *obs.Counter
	greedyCandidates, greedyPruned   *obs.Counter
}

func edgeCountersFor(reg *obs.Registry) *edgeCounters {
	return reg.Memo("assign.edges", func(r *obs.Registry) any {
		edges := func(alg, stage string) *obs.Counter {
			return r.Counter("tamp_assign_edges_total", obs.L("alg", alg), obs.L("stage", stage))
		}
		return &edgeCounters{
			confident:        edges("PPI", "confident"),
			pending:          edges("PPI", "pending"),
			fallback:         edges("PPI", "fallback"),
			km:               edges("KM", "all"),
			ppiCandidates:    edges("PPI", "candidates"),
			ppiPruned:        edges("PPI", "pruned"),
			kmCandidates:     edges("KM", "candidates"),
			kmPruned:         edges("KM", "pruned"),
			greedyCandidates: edges("Greedy", "candidates"),
			greedyPruned:     edges("Greedy", "pruned"),
		}
	}).(*edgeCounters)
}

// Assign implements Assigner.
func (p PPI) Assign(tasks []Task, workers []Worker, tick int) []Pair {
	return p.AssignContext(context.Background(), tasks, workers, tick)
}

// AssignContext implements ContextAssigner: the candidate graphs of stages 1
// and 3 come from the candidate-pair kernel (pairs.go), which fans out over
// worker chunks and returns pairs in task-major, worker-ascending order at
// every parallelism level and on both of its paths (task grid and exhaustive
// scan), so the staged matching sees the same graph — and returns the same
// plan — whichever ran. A cancelled ctx yields a partial plan the caller
// should discard.
func (p PPI) AssignContext(ctx context.Context, tasks []Task, workers []Worker, tick int) []Pair {
	eps := p.Epsilon
	if eps <= 0 {
		eps = 8
	}
	// Per-stage wall time lands in tamp_phase_seconds (assign.ppi/stage1..3)
	// and candidate-edge volume in tamp_assign_edges_total — the numbers
	// behind the paper's AssignTime trends, visible per batch.
	ctx, endPPI := obs.Span(ctx, "assign.ppi")
	defer endPPI()
	ec := edgeCountersFor(obs.RegistryFrom(ctx))
	ws := workspaceFor(ctx)
	scan := ws.newPairScan(ctx, tasks, workers, tick, p.Parallelism, pairConfident)
	_, endStage1 := obs.Span(ctx, "stage1")

	// Stage 1 (lines 1–12): collect B for every candidate combination; pairs
	// with |B|·MR ≥ 1 go straight to the first KM; the rest are kept in 𝓑.
	found := scan.feasible(ctx, pairConfident, p.A, nil, nil)
	confident, pending := ws.edges[:0], ws.pending[:0]
	for _, h := range found.pairs {
		ti, wi := int(h.task), int(h.worker)
		if conf := float64(h.n) * workers[wi].MR; conf >= 1 {
			confident = append(confident, Edge{Task: ti, Worker: wi, Weight: pairWeightFor(&tasks[ti], h.dist)})
		} else {
			pending = append(pending, candidate{task: ti, worker: wi, minB: h.dist, conf: conf})
		}
	}
	ws.edges, ws.pending = confident[:0], pending[:0]
	ec.confident.Add(int64(len(confident)))
	ec.pending.Add(int64(len(pending)))
	ec.ppiCandidates.Add(int64(found.candidates))
	ec.ppiPruned.Add(int64(len(tasks)*len(workers) - found.candidates))
	result := ws.m.Match(confident, nil)
	endStage1()
	// Dense index sets: both sides are small integer ranges, so []bool beats
	// a map on lookup cost and avoids per-entry allocation.
	ws.assignedT = clearedBools(ws.assignedT, len(tasks))
	ws.assignedW = clearedBools(ws.assignedW, len(workers))
	assignedT, assignedW := ws.assignedT, ws.assignedW
	for _, m := range result {
		assignedT[m.Task] = true
		assignedW[m.Worker] = true
	}
	_, endStage2 := obs.Span(ctx, "stage2")

	// Stage 2 (lines 13–27): traverse 𝓑 in descending |B|·MR, batching ε
	// candidates per KM call; after each call, drop everything touching the
	// matched tasks and workers.
	sortPending(pending)
	batch := make([]Edge, 0, eps)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		mark := len(result)
		result = ws.m.Match(batch, result)
		for _, m := range result[mark:] {
			assignedT[m.Task] = true
			assignedW[m.Worker] = true
		}
		batch = batch[:0]
	}
	for _, c := range pending {
		if assignedT[c.task] || assignedW[c.worker] {
			continue
		}
		batch = append(batch, Edge{Task: c.task, Worker: c.worker, Weight: pairWeightFor(&tasks[c.task], c.minB)})
		if len(batch) == eps {
			flush()
		}
	}
	flush()
	endStage2()

	// Stage 3 (lines 28–34): remaining tasks and workers matched on the
	// plain prediction-feasibility graph, a second query on the same scan.
	_, endStage3 := obs.Span(ctx, "stage3")
	defer endStage3()
	rest := ws.edgesOf(scan.feasible(ctx, pairPath, 0, assignedT, assignedW), tasks, 1)
	ec.fallback.Add(int64(len(rest)))
	result = ws.m.Match(rest, result)
	return result
}
