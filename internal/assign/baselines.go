package assign

import (
	"context"
	"math/rand"
	"sort"

	"github.com/spatialcrowd/tamp/internal/obs"
)

// KM is the plain prediction-based baseline: build the bipartite graph the
// way PPI's third stage does (every pair whose predicted-trajectory minimum
// distance satisfies the detour and deadline caps) and solve one global
// maximum-weight matching.
type KM struct {
	// Parallelism bounds the edge-construction pool used by Assign
	// (0 = GOMAXPROCS).
	Parallelism int
}

// Name implements Assigner.
func (KM) Name() string { return "KM" }

// Assign implements Assigner: edges come from the
// candidate-pair kernel under the Theorem-2 feasibility cap, then one KM
// matching. The two stages are timed as separate spans, and the graph size
// lands in tamp_assign_edges_total.
func (k KM) Assign(ctx context.Context, tasks []Task, workers []Worker, tick int) []Pair {
	ctx, endKM := obs.Span(ctx, "assign.km")
	defer endKM()
	ec := edgeCountersFor(obs.RegistryFrom(ctx))
	ws := workspaceFor(ctx)
	_, endEdges := obs.Span(ctx, "edges")
	scan := ws.newPairScan(ctx, tasks, workers, tick, k.Parallelism, pairPath)
	found := scan.feasible(ctx, pairPath, 0, nil, nil)
	edges := ws.edgesOf(found, tasks, 1)
	endEdges()
	ec.km.Add(int64(len(edges)))
	ec.kmCandidates.Add(int64(found.candidates))
	ec.kmPruned.Add(int64(len(tasks)*len(workers) - found.candidates))
	var pairs []Pair
	obs.Time(ctx, "match", func() { pairs = ws.m.Match(edges, nil) })
	return pairs
}

// UB is the oracle upper bound: it checks the exact acceptance predicate
// (ServeDist) against the workers' true timed trajectories, so every
// assignment it makes is accepted and its rejection rate is 0 by
// construction.
type UB struct {
	// Parallelism bounds the edge-construction pool used by Assign
	// (0 = GOMAXPROCS).
	Parallelism int
}

// Name implements Assigner.
func (UB) Name() string { return "UB" }

// ReadsForecast reports false: the oracle matches on Worker.Actual alone.
func (UB) ReadsForecast() bool { return false }

// Assign implements Assigner. ServeDist accepts a point only
// when the out-and-back detour 2·dis fits the budget d, i.e. dis ≤ d/2, so
// the kernel's reach disks around the true trajectory prune soundly for the
// oracle too; an edge costs the full detour.
func (u UB) Assign(ctx context.Context, tasks []Task, workers []Worker, tick int) []Pair {
	ws := workspaceFor(ctx)
	scan := ws.newPairScan(ctx, tasks, workers, tick, u.Parallelism, pairServe)
	return ws.m.Match(ws.edgesOf(scan.feasible(ctx, pairServe, 0, nil, nil), tasks, 2), nil)
}

// LB is the lower bound: the bipartite graph is generated only from each
// worker's current location, ignoring mobility entirely.
type LB struct{}

// Name implements Assigner.
func (LB) Name() string { return "LB" }

// ReadsForecast reports false: LB matches on Worker.Loc alone.
func (LB) ReadsForecast() bool { return false }

// Assign implements Assigner.
func (LB) Assign(ctx context.Context, tasks []Task, workers []Worker, tick int) []Pair {
	ws := workspaceFor(ctx)
	scan := ws.newPairScan(ctx, tasks, workers, tick, 1, pairLoc)
	return ws.m.Match(ws.edgesOf(scan.feasible(ctx, pairLoc, 0, nil, nil), tasks, 1), nil)
}

// edgesOf turns a query's feasible pairs into matching edges in the
// workspace's edge buffer (valid until the next call), scoring each by
// perDist times its distance: 1 for the one-way distances of the reach
// predicates, 2 for UB's out-and-back detour.
func (ws *Workspace) edgesOf(found feasiblePairs, tasks []Task, perDist float64) []Edge {
	edges := ws.edges[:0]
	for _, h := range found.pairs {
		edges = append(edges, Edge{Task: int(h.task), Worker: int(h.worker), Weight: pairWeightFor(&tasks[h.task], perDist*h.dist)})
	}
	ws.edges = edges[:0]
	return edges
}

// GGPSO is the genetic task assignment baseline of Zhang & Zhang [11]: it
// searches the space of assignment plans with iterative crossover, mutation,
// and selection over the prediction-feasible candidate edges.
type GGPSO struct {
	// Population is the number of chromosomes (default 40).
	Population int
	// Generations is the number of evolution rounds (default 60).
	Generations int
	// MutationRate is the per-gene mutation probability (default 0.1).
	MutationRate float64
	// Seed drives the random search; the zero seed is valid.
	Seed int64
}

// Name implements Assigner.
func (GGPSO) Name() string { return "GGPSO" }

// chromosome maps each task index to a worker index (-1 = unassigned).
type chromosome []int

// Assign implements Assigner; the search itself is sequential
// and does not watch ctx.
func (g GGPSO) Assign(ctx context.Context, tasks []Task, workers []Worker, tick int) []Pair {
	pop := g.Population
	if pop <= 0 {
		pop = 40
	}
	gens := g.Generations
	if gens <= 0 {
		gens = 60
	}
	mut := g.MutationRate
	if mut <= 0 {
		mut = 0.1
	}
	rng := rand.New(rand.NewSource(g.Seed + 1))

	// Candidate workers (with weights) per task, from the same
	// prediction-feasibility graph the KM baseline uses. The kernel returns
	// the same lists on its grid and scan paths, so the rng draws over them
	// do not depend on which ran.
	ws := workspaceFor(ctx)
	scan := ws.newPairScan(ctx, tasks, workers, tick, 1, pairPath)
	found := scan.feasible(ctx, pairPath, 0, nil, nil)
	edges := ws.edgesOf(found, tasks, 1)
	cands := make([][]Edge, len(tasks))
	for ti := range cands {
		cands[ti] = edges[found.start[ti]:found.start[ti+1]]
	}

	// One shared occupancy scratch serves newChrom and repair: zeroed on
	// entry instead of reallocated, without touching the rng call sequence.
	used := make([]bool, len(workers))
	clearUsed := func() {
		for i := range used {
			used[i] = false
		}
	}
	newChrom := func(c chromosome) {
		clearUsed()
		for _, ti := range rng.Perm(len(tasks)) {
			c[ti] = -1
			if len(cands[ti]) == 0 {
				continue
			}
			e := cands[ti][rng.Intn(len(cands[ti]))]
			if !used[e.Worker] {
				c[ti] = e.Worker
				used[e.Worker] = true
			}
		}
	}
	fitness := func(c chromosome) float64 {
		var f float64
		for ti, wi := range c {
			if wi < 0 {
				continue
			}
			for _, e := range cands[ti] {
				if e.Worker == wi {
					f += e.Weight
					break
				}
			}
		}
		return f
	}
	repair := func(c chromosome) {
		clearUsed()
		for ti, wi := range c {
			if wi < 0 {
				continue
			}
			if used[wi] {
				c[ti] = -1
				continue
			}
			used[wi] = true
		}
	}

	// Two generation buffers, swapped each round: the search runs without
	// per-generation chromosome allocations.
	popn := make([]chromosome, pop)
	next := make([]chromosome, pop)
	fits := make([]float64, pop)
	for i := range popn {
		popn[i] = make(chromosome, len(tasks))
		next[i] = make(chromosome, len(tasks))
		newChrom(popn[i])
		fits[i] = fitness(popn[i])
	}
	best := append(chromosome(nil), popn[0]...)
	bestFit := fits[0]

	for gen := 0; gen < gens; gen++ {
		for ci := 0; ci < pop; ci++ {
			// Tournament selection of two parents.
			pa := tournament(rng, fits)
			pb := tournament(rng, fits)
			child := next[ci]
			for ti := range child {
				if rng.Intn(2) == 0 {
					child[ti] = popn[pa][ti]
				} else {
					child[ti] = popn[pb][ti]
				}
				// Mutation: re-draw from the candidate list or drop.
				if rng.Float64() < mut {
					if len(cands[ti]) > 0 && rng.Float64() < 0.8 {
						child[ti] = cands[ti][rng.Intn(len(cands[ti]))].Worker
					} else {
						child[ti] = -1
					}
				}
			}
			repair(child)
		}
		popn, next = next, popn
		for i := range popn {
			fits[i] = fitness(popn[i])
			if fits[i] > bestFit {
				bestFit = fits[i]
				best = append(best[:0], popn[i]...)
			}
		}
	}

	var out []Pair
	for ti, wi := range best {
		if wi < 0 {
			continue
		}
		for _, e := range cands[ti] {
			if e.Worker == wi {
				out = append(out, Pair{Task: ti, Worker: wi, Weight: e.Weight})
				break
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Task < out[b].Task })
	return out
}

func tournament(rng *rand.Rand, fits []float64) int {
	a, b := rng.Intn(len(fits)), rng.Intn(len(fits))
	if fits[a] >= fits[b] {
		return a
	}
	return b
}
