package assign

import (
	"context"
	"math"

	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/par"
)

// This file is the one candidate-pair kernel under all six assigners. A
// batch's tasks are counting-sorted into a uniform point grid; every worker
// then probes the grid with the disks around its own points (predicted,
// current or true locations, by pairMode) and the exact feasibility
// predicate runs once on each distinct (task, worker) pair a disk touches.
// The worker-major stream of feasible pairs is regrouped by a stable
// counting sort into the task-major, worker-ascending order every plan is
// built from.
//
// The grid only decides which pairs reach the predicate, never what the
// predicate answers, and the regrouped order does not depend on how pairs
// were found. So the exhaustive scan — every worker against every task,
// through the same predicate and the same regroup — returns the identical
// list; it serves batches too small to repay a grid, batches with
// non-finite geometry, and the tests' oracle (WithBruteScan).

// pairMode names the exact predicate of one query and, with it, the worker
// point set the predicate reads.
type pairMode uint8

const (
	pairConfident pairMode = iota // Predicted: B = {l̂ : dis(l̂, τ.l) + a ≤ reach}; PPI stage 1
	pairPath                      // Predicted: min dis(l̂, τ.l) ≤ reach; PPI stage 3, KM, Greedy, GGPSO
	pairLoc                       // Loc: dis(w.l, τ.l) ≤ reach; LB
	pairServe                     // Actual: ServeDist ≥ 0; UB
)

// points returns the point set mode's predicate measures distances from;
// one backs the single-point set of pairLoc.
func (m pairMode) points(w *Worker, one *[1]geo.Point) []geo.Point {
	switch m {
	case pairLoc:
		one[0] = w.Loc
		return one[:]
	case pairServe:
		return w.Actual
	}
	return w.Predicted
}

// eval is the exact predicate on one pair: n = 0 when infeasible, otherwise
// |B| (pairConfident) or 1, with dist the minimum qualifying distance —
// min B, the path minimum, the current-location distance or ServeDist.
func (m pairMode) eval(t *Task, w *Worker, tick int, a float64) (n int32, dist float64) {
	switch m {
	case pairConfident:
		reach := reachCap(w, t, tick)
		minB := -1.0
		for _, lhat := range w.Predicted {
			d := lhat.Dist(t.Loc)
			if d+a <= reach {
				n++
				if minB < 0 || d < minB {
					minB = d
				}
			}
		}
		return n, minB
	case pairPath:
		if d := minDistTo(w.Predicted, t.Loc); d >= 0 && d <= reachCap(w, t, tick) {
			return 1, d
		}
	case pairLoc:
		if d := w.Loc.Dist(t.Loc); d <= reachCap(w, t, tick) {
			return 1, d
		}
	case pairServe:
		if d := ServeDist(w, t, tick); d >= 0 {
			return 1, d
		}
	}
	return 0, 0
}

// feasiblePair is one (task, worker) pair that passed its query's predicate.
type feasiblePair struct {
	task, worker int32
	n            int32   // |B| under pairConfident, 1 otherwise
	dist         float64 // see pairMode.eval
}

// feasiblePairs is a query's result: the feasible pairs in task-major,
// worker-ascending order, and how many distinct pairs reached the predicate.
type feasiblePairs struct {
	pairs      []feasiblePair
	start      []int32 // task ti's pairs are pairs[start[ti]:start[ti+1]]
	candidates int
}

func (f feasiblePairs) of(ti int) []feasiblePair { return f.pairs[f.start[ti]:f.start[ti+1]] }

type bruteScanKey struct{}

// WithBruteScan returns a context under which every assigner finds its
// candidate pairs by the exhaustive scan instead of the task grid. Plans are
// bit-identical either way; the marker exists so tests and the benchmark
// baseline can hold the scan up as the oracle for the grid.
func WithBruteScan(ctx context.Context) context.Context {
	return context.WithValue(ctx, bruteScanKey{}, true)
}

func bruteScan(ctx context.Context) bool {
	on, _ := ctx.Value(bruteScanKey{}).(bool)
	return on
}

const (
	// gridMinPairs is the batch size, in (task, worker) pairs, below which
	// building and probing a grid costs more than the scan it saves.
	gridMinPairs = 4096
	// pairChunkWorkers is the unit of fan-out: consecutive workers scanned by
	// one pool callback into one buffer.
	pairChunkWorkers = 32
)

// pairChunk collects one worker chunk's feasible pairs, worker-major.
type pairChunk struct {
	hits       []feasiblePair
	candidates int
}

// pairSlot is one pool slot's probe scratch.
type pairSlot struct {
	seen []int32 // seen[ti] == wi+1: the current query already met pair (ti, wi)
	near []int32 // one worker's distinct candidate tasks
}

// pairScan is one batch prepared for candidate-pair queries over one worker
// point set; PPI runs two on the same preparation (pairConfident, then
// pairPath over the leftovers — both read Predicted).
type pairScan struct {
	ws          *Workspace
	tasks       []Task
	workers     []Worker
	tick        int
	parallelism int
	grid        bool // ws.grid holds the tasks; false: exhaustive scan
}

// newPairScan prepares a batch for queries in mode's point set. The choice
// between grid and scan is made here, from the input alone: the scan takes
// batches under gridMinPairs and any batch with a non-finite task location,
// worker point or detour (NaN poisons distance comparisons, so a predicate
// may accept a pair no disk reaches).
func (ws *Workspace) newPairScan(ctx context.Context, tasks []Task, workers []Worker, tick, parallelism int, mode pairMode) pairScan {
	s := pairScan{ws: ws, tasks: tasks, workers: workers, tick: tick, parallelism: parallelism}
	s.grid = !bruteScan(ctx) && len(tasks)*len(workers) >= gridMinPairs &&
		finiteWorkers(workers, mode) && s.buildGrid()
	return s
}

func (s *pairScan) buildGrid() bool {
	return s.ws.grid.Build(len(s.tasks), func(i int) geo.Point { return s.tasks[i].Loc })
}

func finiteWorkers(workers []Worker, mode pairMode) bool {
	var one [1]geo.Point
	for i := range workers {
		if !finite(workers[i].Detour) {
			return false
		}
		for _, p := range mode.points(&workers[i], &one) {
			if !finite(p.X) || !finite(p.Y) {
				return false
			}
		}
	}
	return true
}

// feasible answers one query: every pair (ti, wi) with skipT[ti] and
// skipW[wi] unset, wi not excluded by ti, and mode's predicate satisfied
// (a is PPI's matching-rate radius; 0 outside pairConfident). The result
// aliases the workspace and is valid until the next query on it. Workers fan
// out in chunks whose buffers are concatenated in worker order before the
// regroup, so the result is the same at every parallelism. A cancelled ctx
// yields a partial list.
func (s *pairScan) feasible(ctx context.Context, mode pairMode, a float64, skipT, skipW []bool) feasiblePairs {
	ws, nT, nW := s.ws, len(s.tasks), len(s.workers)
	grid := s.grid && finite(a)
	nChunks := (nW + pairChunkWorkers - 1) / pairChunkWorkers
	for len(ws.chunks) < nChunks {
		ws.chunks = append(ws.chunks, pairChunk{})
	}
	for k := range ws.chunks[:nChunks] { // up front: a cancelled fan-out skips chunks
		ws.chunks[k].hits, ws.chunks[k].candidates = ws.chunks[k].hits[:0], 0
	}
	if grid {
		for len(ws.slots) < par.Workers(s.parallelism, nChunks) {
			ws.slots = append(ws.slots, pairSlot{})
		}
		for i := range ws.slots {
			ws.slots[i].seen = clearedInt32s(ws.slots[i].seen, nT)
		}
	}
	par.ForEachShard(ctx, nChunks, s.parallelism, func(slot, k int) error {
		ch := &ws.chunks[k]
		for wi := k * pairChunkWorkers; wi < min(nW, (k+1)*pairChunkWorkers); wi++ {
			if skipW != nil && skipW[wi] {
				continue
			}
			if grid {
				for _, ti := range s.near(&ws.slots[slot], wi, mode, a) {
					s.visit(ch, int(ti), wi, mode, a, skipT)
				}
			} else {
				for ti := range s.tasks {
					s.visit(ch, ti, wi, mode, a, skipT)
				}
			}
		}
		return nil
	})

	// Regroup: a stable counting sort by task turns the worker-major chunks
	// into the task-major, worker-ascending list. start is filled two slots
	// ahead, prefix-summed, and walked forward by the scatter, which leaves
	// start[ti] at task ti's first pair.
	out := feasiblePairs{}
	start := clearedInt32s(ws.start, nT+2)
	total := 0
	for k := range ws.chunks[:nChunks] {
		out.candidates += ws.chunks[k].candidates
		total += len(ws.chunks[k].hits)
		for _, h := range ws.chunks[k].hits {
			start[h.task+2]++
		}
	}
	for ti := 2; ti < nT+2; ti++ {
		start[ti] += start[ti-1]
	}
	if cap(ws.pairs) < total {
		ws.pairs = make([]feasiblePair, total+total/4)
	}
	out.pairs = ws.pairs[:total]
	for k := range ws.chunks[:nChunks] {
		for _, h := range ws.chunks[k].hits {
			out.pairs[start[h.task+1]] = h
			start[h.task+1]++
		}
	}
	ws.start = start
	out.start = start[:nT+1]
	return out
}

// visit runs the exact predicate on one candidate pair.
func (s *pairScan) visit(ch *pairChunk, ti, wi int, mode pairMode, a float64, skipT []bool) {
	if skipT != nil && skipT[ti] {
		return
	}
	ch.candidates++
	t, w := &s.tasks[ti], &s.workers[wi]
	if t.ExcludedWorker(w.ID) {
		return
	}
	if n, d := mode.eval(t, w, s.tick, a); n > 0 {
		ch.hits = append(ch.hits, feasiblePair{task: int32(ti), worker: int32(wi), n: n, dist: d})
	}
}

// near is the prefilter: the distinct tasks within reach of any of worker
// wi's points, in probe order. Every predicate caps the distance it accepts
// at r = max(d/2, 0) − a (reachCap never exceeds max(d/2, −1), and ServeDist
// demands 2·dis ≤ d), so each point probes the grid cells its reach box
// point ± R overlaps and keeps the tasks inside the disk of radius R. R is r
// widened by 1e-9 relative to every magnitude that entered the exact
// comparison, orders of magnitude above the rounding in d + a ≤ reach, in
// the distance itself and in the box corners: the prefilter may pass a pair
// the predicate rejects, never the reverse.
func (s *pairScan) near(sl *pairSlot, wi int, mode pairMode, a float64) []int32 {
	g := &s.ws.grid
	ids, pts := g.IDs(), g.Points()
	w := &s.workers[wi]
	half := math.Max(w.Detour/2, 0)
	r := half - a
	slack := 1e-9 * (half + math.Abs(a))
	stamp := int32(wi) + 1
	near := sl.near[:0]
	var one [1]geo.Point
	for _, p := range mode.points(w, &one) {
		R := r + slack + 1e-9*(math.Abs(p.X)+math.Abs(p.Y))
		if !(R >= 0) {
			continue
		}
		c0, r0, c1, r1, ok := g.Cover(geo.Pt(p.X-R, p.Y-R), geo.Pt(p.X+R, p.Y+R))
		if !ok {
			continue
		}
		R2 := R * R
		for row := r0; row <= r1; row++ {
			from, to := g.Span(row, c0, c1)
			for k := from; k < to; k++ {
				dx, dy := pts[k].X-p.X, pts[k].Y-p.Y
				if dx*dx+dy*dy > R2 {
					continue
				}
				if ti := ids[k]; sl.seen[ti] != stamp {
					sl.seen[ti] = stamp
					near = append(near, ti)
				}
			}
		}
	}
	sl.near = near
	return near
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// clearedInt32s readies a zeroed int32 scratch of length n.
func clearedInt32s(buf []int32, n int) []int32 {
	buf = growInt32s(buf, n)
	clear(buf)
	return buf
}
