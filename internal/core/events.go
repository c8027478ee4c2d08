// Package core is the deterministic, transport-agnostic state machine of
// the online platform. Every mutation of platform state — tasks arriving,
// workers reporting, offers moving through their lifecycle — is a typed
// Event, and the only mutation path is State.Apply. The HTTP server
// (internal/server) reduces each handler to decode → validate → append the
// event to a write-ahead log → Apply → respond; the deterministic simulator
// (internal/platform) can emit the same events, and the offline replay
// bridge (internal/replay) re-runs a recorded log through any assigner.
//
// Determinism is the contract: applying the same event sequence to a fresh
// State always yields the same state, and EncodeSnapshot renders it to the
// same bytes (maps are serialized as ID-sorted slices), so recovery and
// replay can be checked bit for bit via Digest. The package imports no
// net/http and holds no clocks, sockets, or goroutines.
package core

// Event is one atomic state transition. Events are immutable once created;
// IDs they carry (task, worker, offer) are allocated by the caller reading
// the state under its lock before Apply, so a recorded event sequence is
// self-contained and replays without consulting any allocator.
type Event interface {
	// Kind returns the stable wire name of the event type (see codec.go).
	Kind() string
}

// TaskSubmitted posts a new spatial task. X, Y are grid coordinates already
// clamped to the grid by the transport layer; Deadline is an absolute tick.
// TaskID must be unused (the server allocates NextTaskID, the simulator uses
// workload IDs +1). Reward is the requester's payment (assign.Task.Reward);
// zero, the unrewarded task, is left off the wire.
type TaskSubmitted struct {
	TaskID   int     `json:"taskId"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Deadline int     `json:"deadline"`
	Reward   float64 `json:"reward,omitempty"`
}

// TaskIDLimit bounds task ids: Apply refuses a TaskSubmitted at or above
// it. 2^53 is the largest integer every JSON client round-trips exactly
// (a float64 holds every integer up to it), and the bound leaves NextTask,
// one past the largest id, room below math.MaxInt. httpapi.TaskIDLimit is
// the same bound on the HTTP wire, where the router, which does not link
// core, reads it.
const TaskIDLimit int64 = 1 << 53

// TaskCancelled withdraws an open or offered task; a pending offer on it is
// retracted as part of the same transition.
type TaskCancelled struct {
	TaskID int `json:"taskId"`
}

// WorkerRegistered adds a worker with its effective parameters (defaults and
// model-derived MR already resolved by the caller). Detour is in grid cells.
type WorkerRegistered struct {
	WorkerID int     `json:"workerId"`
	Detour   float64 `json:"detour"`
	Speed    float64 `json:"speed"`
	MR       float64 `json:"mr"`
}

// WorkerReported appends one location report to the worker's trace and
// marks the worker online. Coordinates are pre-clamped grid points.
type WorkerReported struct {
	WorkerID int     `json:"workerId"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
}

// TickAdvanced moves the platform clock forward one tick. Tasks whose
// deadline has passed expire as part of the same transition, retracting
// their pending offers — expiry is derived deterministically from the clock
// rather than recorded as separate events.
type TickAdvanced struct{}

// OfferIssued is one granted (task, worker) pair inside a batch event. It
// is not a standalone event: offers are only ever issued by a batch.
type OfferIssued struct {
	OfferID  int `json:"offerId"`
	TaskID   int `json:"taskId"`
	WorkerID int `json:"workerId"`
}

// BatchAssigned records the plan one assignment batch produced: the offers
// granted (possibly none — empty batches still count) and how many worker
// forecasts degraded to stand-still while building the batch input.
type BatchAssigned struct {
	Offers        []OfferIssued `json:"offers,omitempty"`
	PredFallbacks int           `json:"predFallbacks,omitempty"`
}

// DegradedBatch is BatchAssigned for a batch that fell back to the greedy
// assigner (deadline blown or primary assigner panicked). It applies
// identically but additionally counts as a degraded batch.
type DegradedBatch struct {
	Offers        []OfferIssued `json:"offers,omitempty"`
	PredFallbacks int           `json:"predFallbacks,omitempty"`
}

// OfferAccepted commits the offer's worker to its task.
type OfferAccepted struct {
	OfferID int `json:"offerId"`
}

// OfferRejected declines the offer; the task returns to the open pool and
// the (task, worker) pair is excluded from all future batches.
type OfferRejected struct {
	OfferID int `json:"offerId"`
}

// OfferRetracted withdraws an offer outside the accept/reject path — the
// defensive cleanup when a decision arrives for an offer whose task has
// moved on.
type OfferRetracted struct {
	OfferID int `json:"offerId"`
}

// Wire names. These are persisted in write-ahead logs; never renumber or
// reuse them.
const (
	KindTaskSubmitted    = "task_submitted"
	KindTaskCancelled    = "task_cancelled"
	KindWorkerRegistered = "worker_registered"
	KindWorkerReported   = "worker_reported"
	KindTickAdvanced     = "tick_advanced"
	KindBatchAssigned    = "batch_assigned"
	KindDegradedBatch    = "degraded_batch"
	KindOfferAccepted    = "offer_accepted"
	KindOfferRejected    = "offer_rejected"
	KindOfferRetracted   = "offer_retracted"
)

// Kind implements Event.
func (TaskSubmitted) Kind() string    { return KindTaskSubmitted }
func (TaskCancelled) Kind() string    { return KindTaskCancelled }
func (WorkerRegistered) Kind() string { return KindWorkerRegistered }
func (WorkerReported) Kind() string   { return KindWorkerReported }
func (TickAdvanced) Kind() string     { return KindTickAdvanced }
func (BatchAssigned) Kind() string    { return KindBatchAssigned }
func (DegradedBatch) Kind() string    { return KindDegradedBatch }
func (OfferAccepted) Kind() string    { return KindOfferAccepted }
func (OfferRejected) Kind() string    { return KindOfferRejected }
func (OfferRetracted) Kind() string   { return KindOfferRetracted }
