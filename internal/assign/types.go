package assign

import (
	"context"

	"github.com/spatialcrowd/tamp/internal/geo"
)

// Task is a spatial task τ = (l, t) (Def. 1): check in at Loc before the
// Deadline tick.
type Task struct {
	ID       int
	Loc      geo.Point
	Deadline int // tick by which the task must be reached
	Arrival  int // tick the task was posted (bookkeeping for carry-over)

	// Reward is the payment the requester posts for completing this task,
	// in abstract reward units. Zero means the workload is unrewarded and
	// every task weighs equally (EffectiveReward returns 1), so the paper's
	// reward-free workloads score exactly as before. Budget-constrained
	// workloads (internal/scenario BudgetRewards) set it per task, and every
	// assigner scales its edge weights by it — reward-per-cost scoring.
	Reward float64

	// Excluded lists worker IDs that already rejected this task in earlier
	// batches; the platform never re-proposes a declined pair. All
	// assigners must skip excluded pairs.
	Excluded []int
}

// EffectiveReward is the task's matching reward: Reward when posted,
// otherwise 1 so unrewarded workloads weigh every task equally.
func (t *Task) EffectiveReward() float64 {
	if t.Reward > 0 {
		return t.Reward
	}
	return 1
}

// ExcludedWorker reports whether the worker previously rejected t.
func (t *Task) ExcludedWorker(workerID int) bool {
	for _, id := range t.Excluded {
		if id == workerID {
			return true
		}
	}
	return false
}

// Worker is the assignment-time view of a crowd worker (Def. 2): current
// location, detour budget, speed, the mobility model's predicted future
// trajectory, the true future trajectory (visible only to the UB oracle and
// to the acceptance simulation), and the worker's matching rate MR.
type Worker struct {
	ID     int
	Loc    geo.Point
	Detour float64 // d: maximum acceptable detour, in cells
	Speed  float64 // sp: cells per tick

	Predicted []geo.Point // predicted locations for the coming ticks
	Actual    []geo.Point // ground-truth locations for the coming ticks
	MR        float64     // matching rate of this worker's prediction model
}

// Assigner produces a batch assignment plan from the current task and
// worker pools. tick is the current platform time t_c.
type Assigner interface {
	Name() string
	Assign(tasks []Task, workers []Worker, tick int) []Pair
}

// ContextAssigner is implemented by every built-in assigner: the context
// carries the caller's Workspace and metrics registry, and bounds the
// cancellable worker pool the bipartite graph is built on. The matching
// itself stays sequential — KM's augmenting paths are inherently ordered —
// so parallelism only accelerates the edge generation that dominates large
// batches.
type ContextAssigner interface {
	Assigner
	AssignContext(ctx context.Context, tasks []Task, workers []Worker, tick int) []Pair
}

// Do runs the assigner on one batch, routing through AssignContext when the
// assigner supports it. A cancelled ctx yields a partial (possibly empty)
// plan; callers are expected to check ctx and discard it.
func Do(ctx context.Context, a Assigner, tasks []Task, workers []Worker, tick int) []Pair {
	if ca, ok := a.(ContextAssigner); ok {
		return ca.AssignContext(ctx, tasks, workers, tick)
	}
	return a.Assign(tasks, workers, tick)
}

// ReadsForecast reports whether a's plan depends on Worker.Predicted, so a
// platform need only roll the mobility models out when it does. An assigner
// declares otherwise through an optional ReadsForecast method (LB and UB
// do: pairMode.points has them read Loc and Actual); every other assigner,
// external ones included, is taken to read the forecast.
func ReadsForecast(a Assigner) bool {
	if r, ok := a.(interface{ ReadsForecast() bool }); ok {
		return r.ReadsForecast()
	}
	return true
}

// reachCap returns min(d/2, d^t) of Theorem 2 for a (worker, task) pair:
// half the worker's detour budget capped by how far the worker can still
// travel before the task's deadline (d^t = sp·(τ.t − t_c)). A task whose
// deadline has already passed yields -1, which no distance satisfies.
func reachCap(w *Worker, t *Task, tick int) float64 {
	if t.Deadline < tick {
		return -1
	}
	dt := w.Speed * float64(t.Deadline-tick)
	half := w.Detour / 2
	if dt < half {
		return dt
	}
	return half
}

// minDistTo returns the minimum distance from any point of path to loc,
// or -1 for an empty path.
func minDistTo(path []geo.Point, loc geo.Point) float64 {
	if len(path) == 0 {
		return -1
	}
	best := path[0].Dist(loc)
	for _, p := range path[1:] {
		if d := p.Dist(loc); d < best {
			best = d
		}
	}
	return best
}

// pairWeight converts a distance into a matching weight: closer tasks get
// larger weights. The small offset keeps weights finite when the task sits
// exactly on the trajectory.
func pairWeight(dist float64) float64 { return 1 / (dist + 0.1) }

// pairWeightFor is the reward-aware edge weight every assigner scores with:
// the task's effective reward per unit of (offset) distance, i.e.
// reward-per-cost. On unrewarded tasks (Reward == 0) it reduces exactly to
// pairWeight, so plans on the paper's workloads are bit-identical to the
// reward-free scoring.
func pairWeightFor(t *Task, dist float64) float64 {
	return t.EffectiveReward() * pairWeight(dist)
}

// EstimatedDetourKM is the platform's predicted out-and-back detour cost of
// assigning t to w, in km: twice the minimum distance from the worker's
// predicted trajectory to the task location (falling back to the current
// location when no forecast exists). The budget gate charges this estimate
// against the per-tick platform budget when deciding which offers to issue.
func EstimatedDetourKM(w *Worker, t *Task) float64 {
	d := minDistTo(w.Predicted, t.Loc)
	if d < 0 {
		d = w.Loc.Dist(t.Loc)
	}
	return geo.CellsToKM(2 * d)
}

// ServeDist is the exact feasibility test a worker applies when deciding to
// accept a task. Crowd workers serve tasks in conjunction with their daily
// routines (§II): walking the true timed itinerary (Actual[i] at tick+i+1),
// is there a point from which the out-and-back detour 2·dis stays within
// the budget d and the task is reached before its deadline? It returns the
// smallest such one-way distance, or -1 when no point qualifies. The real
// detour cost d_c is twice the returned distance.
//
// Note the current location does not count: a worker will not abandon
// their routine to serve a task immediately, which is exactly why the
// location-only LB baseline suffers rejections while the UB oracle —
// assigning with this same predicate — has rejection rate 0 by
// construction (§IV-A).
func ServeDist(w *Worker, t *Task, tick int) float64 {
	best := -1.0
	for i, loc := range w.Actual {
		at := tick + i + 1
		if at > t.Deadline {
			break
		}
		d := loc.Dist(t.Loc)
		if 2*d > w.Detour {
			continue
		}
		if w.Speed <= 0 {
			if d > 0 {
				continue
			}
		} else if float64(at)+d/w.Speed > float64(t.Deadline) {
			continue
		}
		if best < 0 || d < best {
			best = d
		}
	}
	return best
}
