package assign

import (
	"context"
	"math"

	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/par"
)

// Session is the incremental assignment engine: it owns the task and worker
// populations across ticks and makes each Assign cost proportional to the
// churn since the previous one, not to the fleet size. Three caches carry
// the steady state over:
//
//   - the spatial grid index is patched in place (geo.GridIndex.Update) from
//     the envelope deltas of mutated workers, falling back to a full Build
//     only when churn crosses sessionRebuildFrac or the patch itself bails;
//   - every task keeps its stage-1/stage-3 candidate rows (confident edges,
//     pending candidates, fallback edges) and reuses them verbatim while the
//     row's validity conditions hold (see classifyRow); a row invalidated
//     only by an index patch is repaired by splicing the dirty workers'
//     entries (patchRow) instead of rescanned, and a tick with no mutations
//     and no invalid rows replays the previous plan outright;
//   - the stage-2 pending list stays sorted across ticks: surviving rows'
//     candidates are merged with the freshly recomputed rows' instead of
//     re-sorting the whole population (cmpCandidate is a strict total order,
//     so the merge reproduces the full sort exactly), and the confident-edge
//     KM warm-starts from the workspace's checkpoints (Matcher.MatchWarm).
//
// The contract is exact: Assign returns the same plan, bit for bit, that
// running PPI from scratch over Tasks()/Workers() at the same tick would —
// at every parallelism level. The churn-equivalence suite holds it to that.
//
// A Session is not safe for concurrent use, and the returned plan (like the
// slices Tasks/Workers expose) is only valid until the next call. Tasks and
// workers handed to Upsert must not be mutated by the caller afterwards;
// hand in a fresh value (or at least fresh Predicted/Actual/Excluded slices)
// to change one.
type Session struct {
	cfg PPI
	ws  Workspace
	idx geo.GridIndex // worker reach envelopes, patched in place across ticks
	all []int32       // identity list: the candidate stream of full-scan rows

	tasks   []Task
	workers []Worker
	taskPos map[int]int // Task.ID -> position in tasks
	workPos map[int]int // Worker.ID -> position in workers

	// Dirty tracking between Assigns. A "position" is dirty when its
	// occupant changed in any way — mutated, inserted, removed, or swapped
	// in from the tail — since the last Assign.
	dirtyT     []bool
	dirtyW     []bool
	dirtyWList []int32
	// workerVer counts every worker mutation; rows computed by a full scan
	// (brute mode, NaN task location, tiny fleets) are valid only while it
	// stands still.
	workerVer uint64

	// Index state. indexEpoch bumps on every rebuild and on every mode flip,
	// invalidating all rows at once; cellVer tracks per-cell patches within
	// an epoch and ovfVer the overflow population (membership or content).
	built      bool
	scanAll    bool
	unbounded  int // workers whose widened envelope is non-finite
	indexEpoch uint64
	cellVer    []uint32
	ovfVer     uint64
	patched    uint64 // cells patched since the last rebuild
	envUnb     []bool // per-position: envelope currently non-finite

	// Per-task row caches, parallel to tasks.
	rows []sessionRow
	gen  uint64 // Assign generation; rows recomputed this tick carry it

	// Sorted stage-2 pending carried across ticks, plus merge scratch.
	pendSorted  []candidate
	pendScratch []candidate
	freshPend   []candidate

	// Reused per-tick buffers.
	deltas    []geo.EnvDelta
	recompute []int32 // rows needing a full rescan
	patchList []int32 // rows needing only a dirty-worker patch
	confident []Edge
	rest      []Edge
	out       []Pair
	batch     []Edge
	aT, aW    []bool

	// Quiescent replay: when nothing mutated and every row replayed valid,
	// the previous plan IS this tick's plan.
	mutated  bool
	havePlan bool

	stats SessionStats
}

// SessionStats reports what the last Assign reused versus recomputed, plus
// session-lifetime totals; benchmarks and the churn suite read it to assert
// the engine actually ran incrementally.
type SessionStats struct {
	// Last tick.
	Tasks, Workers int
	RecomputedRows int  // candidate rows rebuilt from a full rescan
	PatchedRows    int  // candidate rows repaired by a dirty-worker patch
	WarmRows       int  // stage-1 KM rows resumed from checkpoints
	PatchedCells   int  // grid cells patched in place (0 on rebuild ticks)
	RebuiltIndex   bool // this tick fell back to a full Build
	ScanAll        bool // degenerate full-scan mode (brute/tiny/unbounded)
	// Lifetime.
	TotalRebuilds uint64
	TotalPatched  uint64
}

// sessionRow is one task's cached candidate scan. confident/pending are the
// stage-1 outputs, fallback is the unfiltered stage-3 feasibility row (the
// assigned-worker filter is applied at emit time, since it changes every
// tick). need is the reach-constancy bound: the row stays valid at tick t'
// only while deadline−t' ≥ need, which pins every visited worker's reach cap
// at detour/2 so the cached comparisons replay bitwise.
type sessionRow struct {
	valid   bool
	scan    bool // computed against a full worker scan (wVer validity)
	expired bool // deadline < tick at compute time (reach −1 for everyone)
	cell    int32
	epoch   uint64
	gen     uint64
	wVer    uint64
	cellV   uint32
	ovfV    uint64
	need    float64
	visited int

	confident []Edge
	pending   []candidate
	fallback  []Edge
}

// sessionRebuildFrac: when more than 1/sessionRebuildFrac of the fleet is
// dirty, patching cells one by one loses to rebuilding the index outright.
const sessionRebuildFrac = 5 // 20 %

// NewSession returns an empty session configured like cfg (A, Epsilon and
// Parallelism apply exactly as in PPI.AssignContext, as does WithBruteScan on
// the context handed to Assign).
func NewSession(cfg PPI) *Session {
	return &Session{
		cfg:     cfg,
		taskPos: make(map[int]int),
		workPos: make(map[int]int),
	}
}

// Tasks exposes the current task population in position order. Read-only;
// valid until the next mutation or Assign.
func (s *Session) Tasks() []Task { return s.tasks }

// Workers exposes the current worker population in position order.
func (s *Session) Workers() []Worker { return s.workers }

// Stats reports the last Assign's incremental accounting.
func (s *Session) Stats() SessionStats { return s.stats }

// Workspace exposes the session's workspace for warm/cold KM accounting.
func (s *Session) Workspace() *Workspace { return &s.ws }

// UpsertTask inserts t or replaces the task with the same ID.
func (s *Session) UpsertTask(t Task) {
	s.mutated = true
	if p, ok := s.taskPos[t.ID]; ok {
		s.tasks[p] = t
		s.markTaskDirty(p)
		return
	}
	s.tasks = append(s.tasks, t)
	s.rows = append(s.rows, sessionRow{})
	s.taskPos[t.ID] = len(s.tasks) - 1
	s.markTaskDirty(len(s.tasks) - 1)
}

// RemoveTask deletes the task with the given ID, swapping the tail task into
// its slot. Only the hole and the tail positions go dirty, so every cached
// row before the hole keeps its position — and its cached edges — intact.
func (s *Session) RemoveTask(id int) bool {
	p, ok := s.taskPos[id]
	if !ok {
		return false
	}
	s.mutated = true
	last := len(s.tasks) - 1
	if p != last {
		s.tasks[p] = s.tasks[last]
		// Swap (not copy) so the displaced row's edge buffers stay available
		// for reuse; its content is stale either way and p goes dirty.
		s.rows[p], s.rows[last] = s.rows[last], s.rows[p]
		s.taskPos[s.tasks[p].ID] = p
		s.markTaskDirty(p)
	}
	s.tasks = s.tasks[:last]
	s.rows = s.rows[:last]
	delete(s.taskPos, id)
	return true
}

// UpsertWorker inserts w or replaces the worker with the same ID.
func (s *Session) UpsertWorker(w Worker) {
	s.mutated = true
	if p, ok := s.workPos[w.ID]; ok {
		s.workers[p] = w
		s.markWorkerDirty(p)
		return
	}
	s.workers = append(s.workers, w)
	s.workPos[w.ID] = len(s.workers) - 1
	s.markWorkerDirty(len(s.workers) - 1)
}

// RemoveWorker deletes the worker with the given ID (swap-remove).
func (s *Session) RemoveWorker(id int) bool {
	p, ok := s.workPos[id]
	if !ok {
		return false
	}
	s.mutated = true
	last := len(s.workers) - 1
	if p != last {
		s.workers[p] = s.workers[last]
		s.workPos[s.workers[p].ID] = p
		s.markWorkerDirty(p)
	}
	s.workers = s.workers[:last]
	delete(s.workPos, id)
	s.markWorkerDirty(last)
	return true
}

func (s *Session) markTaskDirty(p int) {
	for len(s.dirtyT) <= p {
		s.dirtyT = append(s.dirtyT, false)
	}
	s.dirtyT[p] = true
}

func (s *Session) markWorkerDirty(p int) {
	for len(s.dirtyW) <= p {
		s.dirtyW = append(s.dirtyW, false)
		s.envUnb = append(s.envUnb, false)
	}
	if !s.dirtyW[p] {
		s.dirtyW[p] = true
		s.dirtyWList = append(s.dirtyWList, int32(p))
	}
	s.workerVer++
}

// envOf mirrors PPI.AssignContext's envelope closure exactly: the predicted
// reach envelope, widened by a negative A.
func (s *Session) envOf(i int) (geo.BBox, bool) {
	b, ok := pointsEnvelope(s.workers[i].Predicted, s.workers[i].Detour)
	if ok && s.cfg.A < 0 {
		b.Min.X += s.cfg.A
		b.Min.Y += s.cfg.A
		b.Max.X -= s.cfg.A
		b.Max.Y -= s.cfg.A
	}
	return b, ok
}

// pinnedNeed returns the smallest x such that for every integer Δ =
// deadline−tick with float64(Δ) ≥ x, reachCap's min(speed·Δ, detour/2)
// resolves to the constant detour/2 branch — i.e. the worker's reach no
// longer depends on the tick. +Inf means the reach varies at every horizon
// (rows touching the worker must recompute each tick). The bound is exact,
// not approximate: the ceil seed is verified against the very comparison
// reachCap performs and bumped by ulps until it holds, so a cached row is
// never replayed at a tick where a float rounding would flip a predicate.
func pinnedNeed(w *Worker) float64 {
	half := w.Detour / 2
	switch {
	case math.IsNaN(half):
		return 0 // dt < NaN is always false: reach is the NaN half forever
	case math.IsNaN(w.Speed):
		return 0 // NaN·Δ < half is always false: reach is half forever
	case w.Speed < 0:
		return math.Inf(1)
	case w.Speed == 0:
		return 0 // reach = min(0, half), constant
	}
	if half <= 0 {
		return 0 // dt ≥ 0 ≥ half: the half branch always wins
	}
	x := math.Ceil(half / w.Speed)
	if x < 0 || math.IsNaN(x) {
		x = 0
	}
	for x < math.MaxFloat64 && w.Speed*x < half {
		x = math.Nextafter(x, math.Inf(1))
	}
	return x
}

// Row classification for one tick: fresh rows replay bitwise from cache,
// patch rows are repaired by re-evaluating only the dirty workers, full rows
// rebuild from a complete candidate scan.
const (
	rowFresh = iota
	rowPatch
	rowFull
)

// classifyRow decides how task ti's cached row carries over to tick. A row is
// fresh when every validity condition holds; it is patchable when everything
// holds except the index versions (its bucket or the overflow list was
// patched) — then only dirty workers' entries can differ from a full rescan,
// because bucket membership changes only through deltas within a frozen
// epoch and non-dirty workers' predicates replay bitwise (reach pinned by
// need, or the row expired). Anything else forces a full rebuild.
func (s *Session) classifyRow(ti, tick int, scanTick bool) int {
	r := &s.rows[ti]
	if !r.valid || ti < len(s.dirtyT) && s.dirtyT[ti] {
		return rowFull
	}
	t := &s.tasks[ti]
	expired := t.Deadline < tick
	if expired != r.expired {
		return rowFull
	}
	if !expired && !(float64(t.Deadline-tick) >= r.need) {
		return rowFull // NaN need fails here too, conservatively
	}
	if r.scan {
		// Full-scan rows depend on the entire worker population. They stay
		// valid across mode flips: the feasible set (and so the cached edges)
		// is the same whether the scan was pruned or not, and any flip into
		// or out of scan mode implies a worker mutation bumped workerVer.
		if r.wVer == s.workerVer {
			return rowFresh
		}
		return rowFull
	}
	if scanTick || r.epoch != s.indexEpoch {
		return rowFull
	}
	if r.ovfV == s.ovfVer && (r.cell < 0 || s.cellVer[r.cell] == r.cellV) {
		return rowFresh
	}
	return rowPatch
}

// Assign runs one incremental PPI tick and returns the plan — bit-identical
// to PPI{cfg}.AssignContext over Tasks()/Workers() at the same tick. The
// returned slice is reused by the next call.
func (s *Session) Assign(ctx context.Context, tick int) []Pair {
	ctx, endSpan := obs.Span(ctx, "assign.session")
	defer endSpan()
	ec := edgeCountersFor(obs.RegistryFrom(ctx))
	s.gen++
	s.stats = SessionStats{
		Tasks: len(s.tasks), Workers: len(s.workers),
		TotalRebuilds: s.stats.TotalRebuilds, TotalPatched: s.stats.TotalPatched,
	}

	s.refreshIndex(ctx, ec)
	s.refreshRows(ctx, tick)

	// Quiescent replay: no mutation since the last full Assign and every row
	// replayed valid means every stage would see byte-identical inputs — the
	// pipeline is deterministic, so the previous plan IS this tick's plan.
	// (Ticks advancing is fine: row validity already proves the tick change
	// flips no cached predicate.) Replayed ticks count every row as warm in
	// the workspace accounting; the edge-volume counters are not re-added.
	if !s.mutated && s.havePlan && !s.stats.RebuiltIndex &&
		len(s.recompute) == 0 && len(s.patchList) == 0 {
		s.ws.noteWarm(len(s.tasks))
		ec.kmWarmRows.Add(int64(len(s.tasks)))
		s.stats.WarmRows = len(s.tasks)
		return s.out
	}

	// Stage 1: concatenate cached confident rows in task order (the exact
	// stream the from-scratch scan emits) and warm-start the KM on it.
	eps := s.cfg.Epsilon
	if eps <= 0 {
		eps = 8
	}
	var nConf, nPend, nVisited int
	for i := range s.rows {
		nConf += len(s.rows[i].confident)
		nPend += len(s.rows[i].pending)
		nVisited += s.rows[i].visited
	}
	if cap(s.confident) < nConf {
		s.confident = make([]Edge, 0, nConf+nConf/2)
	}
	s.confident = s.confident[:0]
	for i := range s.rows {
		s.confident = append(s.confident, s.rows[i].confident...)
	}
	ec.confident.Add(int64(nConf))
	ec.pending.Add(int64(nPend))
	ec.ppiCandidates.Add(int64(nVisited))
	ec.ppiPruned.Add(int64(len(s.tasks)*len(s.workers) - nVisited))
	result, warmRows := s.ws.m.MatchWarm(&s.ws.warm, s.confident, s.out[:0])
	s.ws.noteWarm(warmRows)
	ec.kmWarmRows.Add(int64(warmRows))
	s.stats.WarmRows = warmRows

	s.aT = clearedBools(s.aT, len(s.tasks))
	s.aW = clearedBools(s.aW, len(s.workers))
	for _, m := range result {
		s.aT[m.Task] = true
		s.aW[m.Worker] = true
	}

	// Stage 2: merge surviving sorted candidates with the recomputed rows'
	// freshly sorted ones — cmpCandidate is a strict total order over
	// distinct (task, worker) pairs, so the merge IS the full sort — then
	// run the ε-batched KM sweep over it.
	pending := s.mergePending()
	batch := s.batch[:0]
	flush := func() {
		if len(batch) == 0 {
			return
		}
		mark := len(result)
		result = s.ws.m.Match(batch, result)
		for _, m := range result[mark:] {
			s.aT[m.Task] = true
			s.aW[m.Worker] = true
		}
		batch = batch[:0]
	}
	for _, c := range pending {
		if s.aT[c.task] || s.aW[c.worker] {
			continue
		}
		batch = append(batch, Edge{Task: c.task, Worker: c.worker, Weight: pairWeightFor(&s.tasks[c.task], c.minB)})
		if len(batch) == eps {
			flush()
		}
	}
	flush()
	s.batch = batch[:0]

	// Stage 3: emit the cached unfiltered feasibility rows of the still
	// unassigned tasks, dropping assigned workers on the way out — the same
	// edge list the from-scratch scan builds with the filter inline.
	rest := s.rest[:0]
	for ti := range s.rows {
		if s.aT[ti] {
			continue
		}
		for _, e := range s.rows[ti].fallback {
			if !s.aW[e.Worker] {
				rest = append(rest, e)
			}
		}
	}
	s.rest = rest[:0]
	ec.fallback.Add(int64(len(rest)))
	result = s.ws.m.Match(rest, result)

	// Commit: this plan's caches now describe the post-mutation state.
	for _, p := range s.dirtyWList {
		s.dirtyW[p] = false
	}
	s.dirtyWList = s.dirtyWList[:0]
	for i := range s.dirtyT {
		s.dirtyT[i] = false
	}
	s.mutated = false
	s.havePlan = true
	s.out = result
	return result
}

// refreshIndex brings the spatial index in line with the current worker
// population: in-place Update for light churn, full Build past the fallback
// threshold, and the degenerate full-scan mode when the index cannot help
// (brute-scan context, tiny fleets, unbounded envelopes).
func (s *Session) refreshIndex(ctx context.Context, ec *edgeCounters) {
	// Settle the envelopes of dirty positions and the unbounded census.
	nW := len(s.workers)
	for _, p32 := range s.dirtyWList {
		p := int(p32)
		unb := false
		if p < nW {
			if b, ok := s.envOf(p); ok && !finiteEnvelope(b) {
				unb = true
			}
		}
		if unb != s.envUnb[p] {
			if unb {
				s.unbounded++
			} else {
				s.unbounded--
			}
			s.envUnb[p] = unb
		}
	}

	scanAll := bruteScan(ctx) || nW < indexMinWorkers || s.unbounded > 0
	if scanAll != s.scanAll {
		s.scanAll = scanAll
		s.indexEpoch++
		s.built = false
	}
	s.stats.ScanAll = scanAll
	if scanAll {
		s.all = identity(s.all, nW)
		return
	}

	rebuild := !s.built ||
		sessionRebuildFrac*len(s.dirtyWList) > nW ||
		s.patched > uint64(s.cells())
	if !rebuild && len(s.dirtyWList) > 0 {
		_, end := obs.Span(ctx, "index_update")
		s.deltas = s.deltas[:0]
		ovfDirty := false
		for _, p32 := range s.dirtyWList {
			p := int(p32)
			d := geo.EnvDelta{ID: p32}
			if p < nW {
				d.Env, d.Has = s.envOf(p)
			}
			s.deltas = append(s.deltas, d)
			if !ovfDirty && inSorted(s.idx.Overflow(), p32) {
				ovfDirty = true
			}
		}
		touched, ovfChanged, ok := s.idx.Update(s.deltas)
		if ok {
			for _, c := range touched {
				s.cellVer[c]++
			}
			for _, p32 := range s.dirtyWList {
				if !ovfDirty && inSorted(s.idx.Overflow(), p32) {
					ovfDirty = true
				}
			}
			if ovfChanged || ovfDirty {
				s.ovfVer++
			}
			s.patched += uint64(len(touched))
			s.stats.PatchedCells = len(touched)
			s.stats.TotalPatched += uint64(len(touched))
			ec.idxPatched.Add(int64(len(touched)))
		} else {
			rebuild = true
		}
		end()
	}
	if rebuild {
		_, end := obs.Span(ctx, "index")
		err := s.idx.Build(ctx, nW, s.cfg.Parallelism, s.envOf)
		end()
		s.indexEpoch++
		s.patched = 0
		if err != nil {
			// Cancellation mid-build: serve this tick by full scan (the plan
			// is partial anyway) and let the next tick rebuild from cold.
			s.built = false
			s.stats.ScanAll = true
			s.all = identity(s.all, nW)
			return
		}
		s.built = true
		s.cellVer = growCellVer(s.cellVer, s.cells())
		s.stats.RebuiltIndex = true
		s.stats.TotalRebuilds++
		ec.idxRebuilds.Add(1)
	}
	s.all = identity(s.all, nW)
}

// cells returns the current grid's cell count (0 when gridless).
func (s *Session) cells() int {
	cols, rows := s.idx.Dims()
	return cols * rows
}

// refreshRows repairs every invalidated row on the parallel pool: rows whose
// bucket was merely patched get a dirty-worker splice, everything else a full
// rescan. All surviving rows replay bitwise, so the scan cost of a tick is
// proportional to the churn, not the task population.
func (s *Session) refreshRows(ctx context.Context, tick int) {
	scanTick := s.stats.ScanAll // includes the mid-build cancellation case
	s.recompute = s.recompute[:0]
	s.patchList = s.patchList[:0]
	for ti := range s.rows {
		switch s.classifyRow(ti, tick, scanTick) {
		case rowFresh:
		case rowPatch:
			s.patchList = append(s.patchList, int32(ti))
		default:
			s.rows[ti].valid = false
			s.recompute = append(s.recompute, int32(ti))
		}
	}
	s.stats.RecomputedRows = len(s.recompute)
	s.stats.PatchedRows = len(s.patchList)
	list := s.recompute
	par.ForEach(ctx, len(list), s.cfg.Parallelism, func(k int) error {
		s.computeRow(int(list[k]), tick, scanTick)
		return nil
	})
	plist := s.patchList
	par.ForEach(ctx, len(plist), s.cfg.Parallelism, func(k int) error {
		s.patchRow(int(plist[k]), tick)
		return nil
	})
}

// computeRow rebuilds task ti's cached candidate row: the same scan PPI's
// stages 1 and 3 run, fused into one pass that also derives the row's reach
// pinning bound.
func (s *Session) computeRow(ti, tick int, scanTick bool) {
	r := &s.rows[ti]
	r.confident = r.confident[:0]
	r.pending = r.pending[:0]
	r.fallback = r.fallback[:0]
	t := &s.tasks[ti]

	var it candIter
	scan := scanTick
	cell := -1
	if scanTick || math.IsNaN(t.Loc.X) || math.IsNaN(t.Loc.Y) {
		it = candIter{a: s.all}
		scan = true
	} else {
		cell = s.idx.CellOf(t.Loc)
		it = candIter{a: s.idx.Bucket(cell), b: s.idx.Overflow()}
	}
	r.visited = it.total()

	need := 0.0
	for wi32, ok := it.next(); ok; wi32, ok = it.next() {
		wi := int(wi32)
		w := &s.workers[wi]
		if t.ExcludedWorker(w.ID) {
			continue
		}
		reach := reachCap(w, t, tick)
		var bCount int
		minB, dmin := -1.0, -1.0
		for _, lhat := range w.Predicted {
			d := lhat.Dist(t.Loc)
			if d+s.cfg.A <= reach {
				bCount++
				if minB < 0 || d < minB {
					minB = d
				}
			}
			if dmin < 0 || d < dmin {
				dmin = d
			}
		}
		if len(w.Predicted) > 0 {
			if n := pinnedNeed(w); !(n <= need) {
				need = n // NaN-propagating max
			}
		}
		if bCount > 0 {
			conf := float64(bCount) * w.MR
			if conf >= 1 {
				r.confident = append(r.confident, Edge{Task: ti, Worker: wi, Weight: pairWeightFor(t, minB)})
			} else {
				r.pending = append(r.pending, candidate{task: ti, worker: wi, minB: minB, conf: conf})
			}
		}
		// The stage-3 predicate, minus the per-tick assigned-worker filter
		// (applied at emit). dmin here is exactly minDistTo(w.Predicted, loc):
		// same accumulation order, bitwise-same result, NaN included.
		if dmin >= 0 && dmin <= reach {
			r.fallback = append(r.fallback, Edge{Task: ti, Worker: wi, Weight: pairWeightFor(t, dmin)})
		}
	}

	r.scan = scan
	r.expired = t.Deadline < tick
	r.cell = int32(cell)
	r.epoch = s.indexEpoch
	r.gen = s.gen
	r.wVer = s.workerVer
	r.ovfV = s.ovfVer
	if cell >= 0 {
		r.cellV = s.cellVer[cell]
	}
	r.need = need
	r.valid = true
}

// patchRow repairs task ti's cached row after an index patch touched its
// bucket. Per-(task, worker) edges are independent, so only dirty workers'
// entries can differ from what a full rescan would produce: drop those from
// the three cached lists, re-evaluate the dirty workers present in the
// current candidate set at this tick, and splice the results back in worker
// order (the lists are worker-ascending, like the candidate iteration that
// built them). The result is byte-identical to computeRow's. need only grows
// — departed workers' contributions are kept — which is conservative: an
// inflated bound recomputes the row earlier, never replays it stale.
func (s *Session) patchRow(ti, tick int) {
	r := &s.rows[ti]
	t := &s.tasks[ti]
	it := candIter{a: s.idx.Bucket(int(r.cell)), b: s.idx.Overflow()}
	r.visited = it.total()
	r.confident = s.dropDirtyEdges(r.confident)
	r.pending = s.dropDirtyCands(r.pending)
	r.fallback = s.dropDirtyEdges(r.fallback)

	need := r.need
	for wi32, ok := it.next(); ok; wi32, ok = it.next() {
		wi := int(wi32)
		if wi >= len(s.dirtyW) || !s.dirtyW[wi] {
			continue
		}
		w := &s.workers[wi]
		if t.ExcludedWorker(w.ID) {
			continue
		}
		reach := reachCap(w, t, tick)
		var bCount int
		minB, dmin := -1.0, -1.0
		for _, lhat := range w.Predicted {
			d := lhat.Dist(t.Loc)
			if d+s.cfg.A <= reach {
				bCount++
				if minB < 0 || d < minB {
					minB = d
				}
			}
			if dmin < 0 || d < dmin {
				dmin = d
			}
		}
		if len(w.Predicted) > 0 {
			if n := pinnedNeed(w); !(n <= need) {
				need = n // NaN-propagating max
			}
		}
		if bCount > 0 {
			conf := float64(bCount) * w.MR
			if conf >= 1 {
				r.confident = insertEdgeByWorker(r.confident, Edge{Task: ti, Worker: wi, Weight: pairWeightFor(t, minB)})
			} else {
				r.pending = insertCandByWorker(r.pending, candidate{task: ti, worker: wi, minB: minB, conf: conf})
			}
		}
		if dmin >= 0 && dmin <= reach {
			r.fallback = insertEdgeByWorker(r.fallback, Edge{Task: ti, Worker: wi, Weight: pairWeightFor(t, dmin)})
		}
	}
	r.need = need
	r.gen = s.gen
	r.ovfV = s.ovfVer
	if r.cell >= 0 {
		r.cellV = s.cellVer[r.cell]
	}
}

// dropDirtyEdges removes entries whose worker is dirty, in place, preserving
// order. Positions past the dirty-flag array were never marked.
func (s *Session) dropDirtyEdges(row []Edge) []Edge {
	out := row[:0]
	for _, e := range row {
		if e.Worker < len(s.dirtyW) && s.dirtyW[e.Worker] {
			continue
		}
		out = append(out, e)
	}
	return out
}

// dropDirtyCands is dropDirtyEdges for stage-2 candidates.
func (s *Session) dropDirtyCands(row []candidate) []candidate {
	out := row[:0]
	for _, c := range row {
		if c.worker < len(s.dirtyW) && s.dirtyW[c.worker] {
			continue
		}
		out = append(out, c)
	}
	return out
}

// insertEdgeByWorker splices e into the worker-ascending edge row.
func insertEdgeByWorker(row []Edge, e Edge) []Edge {
	i := len(row)
	for i > 0 && row[i-1].Worker > e.Worker {
		i--
	}
	row = append(row, Edge{})
	copy(row[i+1:], row[i:])
	row[i] = e
	return row
}

// insertCandByWorker splices c into the worker-ascending candidate row.
func insertCandByWorker(row []candidate, c candidate) []candidate {
	i := len(row)
	for i > 0 && row[i-1].worker > c.worker {
		i--
	}
	row = append(row, candidate{})
	copy(row[i+1:], row[i:])
	row[i] = c
	return row
}

// mergePending rebuilds the sorted stage-2 candidate list: the previous
// tick's sorted list minus entries of recomputed (or removed) tasks, merged
// with the recomputed rows' candidates. Cost is O(survivors + fresh·log
// fresh) instead of the from-scratch O(P log P) over the whole population.
func (s *Session) mergePending() []candidate {
	fresh := s.freshPend[:0]
	for _, ti := range s.recompute {
		fresh = append(fresh, s.rows[ti].pending...)
	}
	for _, ti := range s.patchList {
		fresh = append(fresh, s.rows[ti].pending...)
	}
	sortPending(fresh)
	s.freshPend = fresh[:0]

	stale := func(c candidate) bool {
		return c.task >= len(s.tasks) || s.rows[c.task].gen == s.gen
	}
	merged := s.pendScratch[:0]
	prev := s.pendSorted
	i, j := 0, 0
	for {
		for i < len(prev) && stale(prev[i]) {
			i++
		}
		if i >= len(prev) {
			merged = append(merged, fresh[j:]...)
			break
		}
		if j >= len(fresh) {
			for ; i < len(prev); i++ {
				if !stale(prev[i]) {
					merged = append(merged, prev[i])
				}
			}
			break
		}
		if cmpCandidate(prev[i], fresh[j]) <= 0 {
			merged = append(merged, prev[i])
			i++
		} else {
			merged = append(merged, fresh[j])
			j++
		}
	}
	s.pendScratch = prev[:0]
	s.pendSorted = merged
	return merged
}

// inSorted reports whether v occurs in the ascending slice a.
func inSorted(a []int32, v int32) bool {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(a) && a[lo] == v
}

// clearedBools readies a cleared bool scratch of length n.
func clearedBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

// growCellVer returns a zeroed per-cell version array of length n.
func growCellVer(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// candIter merges two ascending, disjoint id streams (grid bucket and
// overflow list) into one ascending scan without materializing the union.
type candIter struct {
	a, b []int32
	i, j int
}

// next returns the smallest unconsumed id, or ok=false when exhausted.
func (it *candIter) next() (int32, bool) {
	if it.i < len(it.a) {
		if it.j < len(it.b) && it.b[it.j] < it.a[it.i] {
			v := it.b[it.j]
			it.j++
			return v, true
		}
		v := it.a[it.i]
		it.i++
		return v, true
	}
	if it.j < len(it.b) {
		v := it.b[it.j]
		it.j++
		return v, true
	}
	return 0, false
}

// total is the number of ids the full scan will visit (streams are
// disjoint by construction).
func (it candIter) total() int { return len(it.a) + len(it.b) }

// indexMinWorkers is the fleet size below which the index rebuild costs more
// than the scan it prunes; smaller fleets take the identical-plan full scan.
// The threshold only moves work between equivalent code paths — plans are
// bit-identical on both sides of it.
const indexMinWorkers = 16

// pointsEnvelope is the reach envelope of a worker over the given point set:
// the bounding box of its points expanded by detour/2, the ceiling of
// Theorem 2's reach cap min(d/2, dᵗ). Every task a feasibility predicate can
// accept for this worker lies inside the envelope, so pruning to the
// envelope's grid cells never drops a feasible pair. ok=false (no points)
// removes the worker from the index entirely — exactly the pairs the brute
// scan also rejects. A non-finite point poisons the scan predicates through
// sticky NaN comparisons (minDistTo/ServeDist can then accept the worker for
// a task at any distance), so it makes the envelope non-finite, which
// refreshIndex turns into the whole-fleet full-scan mode.
func pointsEnvelope(pts []geo.Point, detour float64) (geo.BBox, bool) {
	if len(pts) == 0 {
		return geo.BBox{}, false
	}
	r := detour / 2
	if !(r > 0) { // negative or NaN detour: a zero-radius disk still matches d=0
		r = 0
	}
	b := geo.BBox{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		b.Min.X = math.Min(b.Min.X, p.X)
		b.Min.Y = math.Min(b.Min.Y, p.Y)
		b.Max.X = math.Max(b.Max.X, p.X)
		b.Max.Y = math.Max(b.Max.Y, p.Y)
	}
	b.Min.X -= r
	b.Min.Y -= r
	b.Max.X += r
	b.Max.Y += r
	return b, true
}

func finiteEnvelope(b geo.BBox) bool {
	return finite(b.Min.X) && finite(b.Min.Y) && finite(b.Max.X) && finite(b.Max.Y)
}

// identity returns [0, 1, …, n) in buf's storage.
func identity(buf []int32, n int) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	} else {
		buf = buf[:n]
	}
	for i := range buf {
		buf[i] = int32(i)
	}
	return buf
}
