package assign

import (
	"context"
	"sort"

	"github.com/spatialcrowd/tamp/internal/obs"
)

// Greedy is the degraded-mode fallback assigner: when a batch blows its
// assignment deadline (or the primary assigner fails), the platform still
// owes requesters a plan. Greedy makes one pass — tasks in deadline order,
// each taking its nearest feasible unclaimed worker by predicted-trajectory
// distance under the Theorem-2 reachability cap — with none of PPI's
// matching machinery. The candidate-pair kernel hands each task only the
// workers that can reach it; the plan is worse than a maximum-weight
// matching but arrives in microseconds, deterministically.
type Greedy struct {
	// Parallelism bounds the pool the kernel builds the feasibility graph on
	// (0 = GOMAXPROCS); the assignment pass itself is sequential.
	Parallelism int
}

// Name implements Assigner.
func (Greedy) Name() string { return "Greedy" }

// Assign implements Assigner.
func (g Greedy) Assign(tasks []Task, workers []Worker, tick int) []Pair {
	return g.AssignContext(context.Background(), tasks, workers, tick)
}

// AssignContext implements ContextAssigner. Each task's feasible workers
// arrive in ascending worker order on both kernel paths and the
// nearest-worker tie-break is strict, so the first of equidistant workers
// wins either way.
func (g Greedy) AssignContext(ctx context.Context, tasks []Task, workers []Worker, tick int) []Pair {
	ec := edgeCountersFor(obs.RegistryFrom(ctx))
	ws := workspaceFor(ctx)
	scan := ws.newPairScan(ctx, tasks, workers, tick, g.Parallelism, pairPath)
	found := scan.feasible(ctx, pairPath, 0, nil, nil)
	ec.greedyCandidates.Add(int64(found.candidates))
	ec.greedyPruned.Add(int64(len(tasks)*len(workers) - found.candidates))
	// Urgency order: earliest deadline first, task index as the
	// deterministic tie-break.
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := &tasks[order[a]], &tasks[order[b]]
		if ta.Deadline != tb.Deadline {
			return ta.Deadline < tb.Deadline
		}
		return order[a] < order[b]
	})
	used := make([]bool, len(workers))
	var out []Pair
	for _, ti := range order {
		best, bestDist := -1, 0.0
		for _, h := range found.of(ti) {
			if wi := int(h.worker); !used[wi] && (best < 0 || h.dist < bestDist) {
				best, bestDist = wi, h.dist
			}
		}
		if best >= 0 {
			used[best] = true
			out = append(out, Pair{Task: ti, Worker: best, Weight: pairWeightFor(&tasks[ti], bestDist)})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Task < out[b].Task })
	return out
}
