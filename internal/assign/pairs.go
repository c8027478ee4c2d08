package assign

import (
	"context"
	"math"

	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/par"
)

// This file is the one candidate-pair kernel under all six assigners. Every
// query runs the exact feasibility predicate (pairMode.eval) on some of a
// batch's (task, worker) pairs and regroups the worker-major stream of
// feasible pairs, by a stable counting sort, into the task-major,
// worker-ascending order every plan is built from. Three paths decide which
// pairs reach the predicate:
//
//   - the grid (batches of gridMinPairs pairs and more): the tasks are
//     counting-sorted into a uniform point grid, and every worker probes it
//     with the disks around its own points (predicted, current or true
//     locations, by pairMode);
//   - the boxed scan (smaller batches): every worker meets every task, but a
//     task farther from the bounding box of the worker's points than the
//     pair's reach is cut before the predicate;
//   - the exhaustive scan: every worker against every task. It serves
//     batches with non-finite geometry, LB's one-point sets (where the box
//     test is the predicate) and the tests' oracle (WithBruteScan).
//
// Both prefilters only decide which pairs reach the predicate, never what
// it answers, and both are sound: each widens the largest distance any
// predicate accepts by a relative slack, so it may pass a pair the
// predicate rejects, never the reverse. The regrouped order does not depend
// on how pairs were found, so all three paths return the identical list.

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
// candidate pairs by the exhaustive scan instead of the task grid or the
// boxed scan. Plans are bit-identical either way; the marker exists so tests
// and the benchmark baseline can hold the scan up as the oracle for both.
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

// pairKernel names the path by which a query's pairs reach the predicate.
type pairKernel uint8

const (
	kernelScan pairKernel = iota // every task against every worker: the oracle
	kernelBox                    // every task, less those beyond reach of the worker's point box
	kernelGrid                   // the tasks the worker's reach disks probe in the task grid
)

// pairScan is one batch prepared for candidate-pair queries over one worker
// point set; PPI runs two on the same preparation (pairConfident, then
// pairPath over the leftovers — both read Predicted, so both use the same
// boxes).
type pairScan struct {
	ws          *Workspace
	tasks       []Task
	workers     []Worker
	tick        int
	parallelism int
	kernel      pairKernel // kernelBox: ws.boxes holds the workers' point boxes
}

// newPairScan prepares a batch for queries in mode's point set. The choice
// of path is made here, from the input alone: a batch with a non-finite task
// location, worker point or detour takes the exhaustive scan (NaN poisons
// distance comparisons, so a predicate may accept a pair no prefilter
// reaches). Other batches take the grid from gridMinPairs pairs on, when it
// builds, and the boxed scan below that, except in pairLoc, whose one-point
// box test would repeat the predicate. Neither prefilter needs the ticks to
// be small.
func (ws *Workspace) newPairScan(ctx context.Context, tasks []Task, workers []Worker, tick, parallelism int, mode pairMode) pairScan {
	s := pairScan{ws: ws, tasks: tasks, workers: workers, tick: tick, parallelism: parallelism}
	switch {
	case bruteScan(ctx) || !finiteBatch(tasks, workers, mode):
	case len(tasks)*len(workers) >= gridMinPairs && s.buildGrid():
		s.kernel = kernelGrid
	case mode != pairLoc:
		s.kernel = kernelBox
		ws.buildBoxes(workers, mode)
	}
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
	kernel := s.kernel
	if !finite(a) {
		kernel = kernelScan
	}
	nChunks := (nW + pairChunkWorkers - 1) / pairChunkWorkers
	for len(ws.chunks) < nChunks {
		ws.chunks = append(ws.chunks, pairChunk{})
	}
	for k := range ws.chunks[:nChunks] { // up front: a cancelled fan-out skips chunks
		ws.chunks[k].hits, ws.chunks[k].candidates = ws.chunks[k].hits[:0], 0
	}
	if kernel == kernelGrid {
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
			switch kernel {
			case kernelGrid:
				for _, ti := range s.near(&ws.slots[slot], wi, mode, a) {
					s.visit(ch, int(ti), wi, mode, a, skipT)
				}
			case kernelBox:
				s.boxScan(ch, wi, mode, a, skipT)
			default:
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

// near is the grid's prefilter: the distinct tasks within reach of any of
// worker wi's points, in probe order. Every predicate caps the distance it
// accepts at r = max(d/2, 0) − a (reachCap never exceeds max(d/2, −1), and
// ServeDist demands 2·dis ≤ d), so each point probes the grid cells its
// reach box point ± R overlaps and keeps the tasks inside the disk of radius
// R. R is r widened by 1e-9 relative to every magnitude that entered the
// exact comparison, orders of magnitude above the rounding in d + a ≤ reach,
// in the distance itself and in the box corners: the prefilter may pass a
// pair the predicate rejects, never the reverse.
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

// maxExactTick bounds the ticks float64 holds exactly, and their differences.
// On a 32-bit int every tick is within it.
const maxExactTick = min(1<<52, math.MaxInt)

// finiteBatch reports whether the prefilters can bound a batch: finite task
// locations, worker points and detours.
func finiteBatch(tasks []Task, workers []Worker, mode pairMode) bool {
	for i := range tasks {
		if !finite(tasks[i].Loc.X) || !finite(tasks[i].Loc.Y) {
			return false
		}
	}
	return finiteWorkers(workers, mode)
}

// buildBoxes bounds every worker's point set in mode: worker wi's
// axis-aligned box is ws.boxes[4wi:4wi+4] = x0, y0, x1, y1. An empty set's
// box is empty (x0 = +Inf, x1 = −Inf), and no task is near it.
func (ws *Workspace) buildBoxes(workers []Worker, mode pairMode) {
	if cap(ws.boxes) < 4*len(workers) {
		ws.boxes = make([]float64, 4*len(workers))
	}
	ws.boxes = ws.boxes[:4*len(workers)]
	var one [1]geo.Point
	for i := range workers {
		x0, y0, x1, y1 := math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)
		for _, p := range mode.points(&workers[i], &one) {
			x0, x1 = min(x0, p.X), max(x1, p.X)
			y0, y1 = min(y0, p.Y), max(y1, p.Y)
		}
		*(*[4]float64)(ws.boxes[4*i:]) = [4]float64{x0, y0, x1, y1}
	}
}

// boxScan visits, in task order, every task within reach of worker wi's
// point box: the box's squared distance to τ.l is at most R², where R is
// boxRadius(reach, a) and reach is reachCap. Under pairServe, reach is
// clamped at 0 where reachCap is negative, and widened to max(d/2, 0)
// where the tick or the deadline lies beyond ±maxExactTick.
//
// Every predicate accepts a pair only at a distance of at most reach − a
// from some point of the set, and no point of the box is nearer τ.l than the
// box itself. pairConfident accepts a point at dis only if
// dis + a ≤ reachCap and pairPath only if dis ≤ reachCap (a = 0), for any a,
// speed and deadline, an expired one included (reachCap = −1). ServeDist
// accepts a distance of at most d/2 and, at a speed sp > 0, at most
// sp·(τ.t − t_c − 1) while float64 holds the ticks exactly; at sp ≤ 0 it
// accepts 0 alone, where reachCap may be negative. reachCap never exceeds
// max(d/2, −1). The comparison stays sound in floating point: the box's
// nearest coordinate lies between τ.l's and every point's (one of each
// axis' two max terms is 0), so each rounded step of its squared distance is
// at most the same step of eval's dis = √(dx² + dy²) for any point (every
// operation rounds monotonically), and R's slack exceeds the rounding in
// dis, in d + a ≤ reach and in R² by orders of magnitude.
func (s *pairScan) boxScan(ch *pairChunk, wi int, mode pairMode, a float64, skipT []bool) {
	b, w, tasks, tick := (*[4]float64)(s.ws.boxes[4*wi:]), &s.workers[wi], s.tasks, s.tick
	x0, y0, x1, y1 := b[0], b[1], b[2], b[3]
	serve, exactTick := mode == pairServe, -maxExactTick <= tick && tick <= maxExactTick
	for ti := range tasks {
		t := &tasks[ti]
		reach := reachCap(w, t, tick)
		if serve {
			if reach = max(reach, 0); !exactTick || t.Deadline < -maxExactTick || t.Deadline > maxExactTick {
				reach = max(w.Detour/2, 0)
			}
		}
		R := boxRadius(reach, a)
		dx := max(x0-t.Loc.X, 0) + max(t.Loc.X-x1, 0)
		dy := max(y0-t.Loc.Y, 0) + max(t.Loc.Y-y1, 0)
		if !(R >= 0) || dx*dx+dy*dy > R*R {
			continue
		}
		s.visit(ch, ti, wi, mode, a, skipT)
	}
}

// boxRadius is reach − a widened by 1e-9 relative to both, as near's radius
// is, and by 2⁻⁵⁰⁰, so that R² never rounds in the subnormal range.
func boxRadius(reach, a float64) float64 {
	return reach - a + (1e-9*(math.Abs(reach)+math.Abs(a)) + 0x1p-500)
}
