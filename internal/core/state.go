package core

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/geo"
)

// TaskStatus enumerates a task's lifecycle.
type TaskStatus string

// Task lifecycle states. (Status* naming keeps them clear of the event
// types: StatusCancelled is the state a TaskCancelled event leads to.)
const (
	StatusOpen      TaskStatus = "open"      // waiting for assignment
	StatusOffered   TaskStatus = "offered"   // offered to a worker, awaiting decision
	StatusAccepted  TaskStatus = "accepted"  // worker committed to serve it
	StatusExpired   TaskStatus = "expired"   // deadline passed unserved
	StatusCancelled TaskStatus = "cancelled" // withdrawn by the requester
)

// maxTrace caps each worker's reported-location history; predictors only
// ever consume a bounded window.
const maxTrace = 256

// Task is a task's full platform-side record.
type Task struct {
	Task     assign.Task
	Status   TaskStatus
	Offered  int // worker id of the pending offer
	Accepted int // worker id that accepted
	OfferID  int // id of the pending offer (0 = none); mirrors Status == StatusOffered
}

// Worker is a worker's full platform-side record.
type Worker struct {
	ID      int
	Detour  float64 // cells
	Speed   float64 // cells/tick
	MR      float64
	Online  bool
	Trace   []geo.Point // reported locations, most recent last
	OfferID int         // 0 = none pending
}

// Offer is one outstanding (task, worker) proposal.
type Offer struct {
	ID       int
	TaskID   int
	WorkerID int
}

// Counts are the monotonic event tallies of a run. They live inside the
// state machine so recovery restores them bit-identically; the server
// mirrors them into its obs registry.
type Counts struct {
	Offers          int64 `json:"offers"`
	Accepts         int64 `json:"accepts"`
	Rejects         int64 `json:"rejects"`
	Expired         int64 `json:"expired"`
	Retracted       int64 `json:"retracted"`
	Batches         int64 `json:"batches"`
	DegradedBatches int64 `json:"degradedBatches"`
	PredFallbacks   int64 `json:"predFallbacks"`
}

// State is the platform state machine. The zero value is not usable;
// construct with NewState. State is not safe for concurrent use — the owner
// serializes access (the server holds its mutex, replay is single-threaded).
type State struct {
	Tick      int
	NextTask  int
	NextOffer int
	// Applied counts events applied since genesis; it equals the write-ahead
	// log's next sequence number when every appended event is applied.
	Applied uint64

	Tasks   map[int]*Task
	Workers map[int]*Worker
	Offers  map[int]*Offer
	Counts  Counts

	// live holds the open and offered tasks in (Arrival, ID) order, all
	// that expiry and batch selection read; a task that leaves stays until
	// the next TickAdvanced compacts it. Never serialised: DecodeSnapshot
	// rebuilds it.
	live []*Task
}

// NewState returns an empty platform state at tick 0.
func NewState() *State {
	return &State{
		NextTask:  1,
		NextOffer: 1,
		Tasks:     map[int]*Task{},
		Workers:   map[int]*Worker{},
		Offers:    map[int]*Offer{},
	}
}

// ApplyError reports an event that violates a state invariant. Apply leaves
// the state untouched when it returns one, so a caller that validated before
// appending can treat it as a programming error, and replay can surface the
// exact sequence position that diverged.
type ApplyError struct {
	Kind   string // the event's wire name
	Reason string
}

func (e *ApplyError) Error() string {
	return fmt.Sprintf("core: cannot apply %s: %s", e.Kind, e.Reason)
}

func applyErr(kind, format string, args ...any) error {
	return &ApplyError{Kind: kind, Reason: fmt.Sprintf(format, args...)}
}

// nonFinite names the first float field of ev that is NaN or ±Inf, and ev's
// kind. JSON has no spelling for such a value: EncodeEvent cannot write the
// event and Apply refuses it, so an event the state takes is one the log
// can hold.
func nonFinite(ev Event) (kind, field string, v float64) {
	type float struct {
		field string
		v     float64
	}
	var fs [3]float
	switch e := ev.(type) {
	case TaskSubmitted:
		kind, fs = KindTaskSubmitted, [3]float{{"x", e.X}, {"y", e.Y}, {"reward", e.Reward}}
	case WorkerRegistered:
		kind, fs = KindWorkerRegistered, [3]float{{"detour", e.Detour}, {"speed", e.Speed}, {"mr", e.MR}}
	case WorkerReported:
		kind, fs = KindWorkerReported, [3]float{{"x", e.X}, {"y", e.Y}}
	}
	for _, f := range fs {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return kind, f.field, f.v
		}
	}
	return "", "", 0
}

// Apply executes one state transition. It validates the event against the
// current state first and mutates only if the transition is legal, so a
// failed Apply never leaves partial effects. Every legal mutation of the
// platform flows through here — there is no other write path.
// Apply keeps nothing of ev, so a caller's conversion to Event can stay on
// the caller's stack.
func (s *State) Apply(ev Event) error {
	if kind, field, v := nonFinite(ev); field != "" {
		return applyErr(kind, "%s %v not finite", field, v)
	}
	var err error
	switch e := ev.(type) {
	case TaskSubmitted:
		err = s.applyTaskSubmitted(e)
	case TaskCancelled:
		err = s.applyTaskCancelled(e)
	case WorkerRegistered:
		err = s.applyWorkerRegistered(e)
	case WorkerReported:
		err = s.applyWorkerReported(e)
	case TickAdvanced:
		s.applyTickAdvanced()
	case BatchAssigned:
		err = s.applyBatch(KindBatchAssigned, e.Offers, e.PredFallbacks, false)
	case DegradedBatch:
		err = s.applyBatch(KindDegradedBatch, e.Offers, e.PredFallbacks, true)
	case OfferAccepted:
		err = s.applyDecision(KindOfferAccepted, e.OfferID, true)
	case OfferRejected:
		err = s.applyDecision(KindOfferRejected, e.OfferID, false)
	case OfferRetracted:
		err = s.applyOfferRetracted(e)
	default:
		err = applyErr(fmt.Sprint(reflect.TypeOf(ev)), "unknown event type")
	}
	if err != nil {
		return err
	}
	s.Applied++
	return nil
}

func (s *State) applyTaskSubmitted(e TaskSubmitted) error {
	if e.TaskID <= 0 {
		return applyErr(KindTaskSubmitted, "task id %d not positive", e.TaskID)
	}
	if int64(e.TaskID) >= TaskIDLimit {
		return applyErr(KindTaskSubmitted, "task id %d not below %d", e.TaskID, TaskIDLimit)
	}
	if _, dup := s.Tasks[e.TaskID]; dup {
		return applyErr(KindTaskSubmitted, "task %d already exists", e.TaskID)
	}
	if e.Deadline < s.Tick {
		return applyErr(KindTaskSubmitted, "deadline %d before current tick %d", e.Deadline, s.Tick)
	}
	t := &Task{
		Task: assign.Task{
			ID: e.TaskID, Loc: geo.Pt(e.X, e.Y),
			Arrival: s.Tick, Deadline: e.Deadline, Reward: e.Reward,
		},
		Status: StatusOpen,
	}
	s.Tasks[e.TaskID] = t
	i, _ := slices.BinarySearchFunc(s.live, t, byArrivalID)
	s.live = slices.Insert(s.live, i, t)
	if e.TaskID >= s.NextTask {
		s.NextTask = e.TaskID + 1
	}
	return nil
}

func (s *State) applyTaskCancelled(e TaskCancelled) error {
	t, ok := s.Tasks[e.TaskID]
	if !ok {
		return applyErr(KindTaskCancelled, "task %d not found", e.TaskID)
	}
	if t.Status == StatusAccepted {
		return applyErr(KindTaskCancelled, "task %d already accepted", e.TaskID)
	}
	s.retractOffer(t)
	t.Status = StatusCancelled
	return nil
}

func (s *State) applyWorkerRegistered(e WorkerRegistered) error {
	if e.WorkerID <= 0 {
		return applyErr(KindWorkerRegistered, "worker id %d not positive", e.WorkerID)
	}
	if _, dup := s.Workers[e.WorkerID]; dup {
		return applyErr(KindWorkerRegistered, "worker %d already registered", e.WorkerID)
	}
	s.Workers[e.WorkerID] = &Worker{
		ID: e.WorkerID, Detour: e.Detour, Speed: e.Speed, MR: e.MR,
	}
	return nil
}

func (s *State) applyWorkerReported(e WorkerReported) error {
	w, ok := s.Workers[e.WorkerID]
	if !ok {
		return applyErr(KindWorkerReported, "worker %d not registered", e.WorkerID)
	}
	w.Online = true
	w.Trace = append(w.Trace, geo.Pt(e.X, e.Y))
	if len(w.Trace) > maxTrace {
		w.Trace = w.Trace[len(w.Trace)-maxTrace:]
	}
	return nil
}

func (s *State) applyTickAdvanced() {
	s.Tick++
	// Expiry walks the live index, compacting it in place.
	live := s.live[:0]
	for _, t := range s.live {
		switch {
		case t.Status != StatusOpen && t.Status != StatusOffered:
		case t.Task.Deadline < s.Tick:
			s.retractOffer(t)
			t.Status = StatusExpired
			s.Counts.Expired++
		default:
			live = append(live, t)
		}
	}
	s.live = live
}

func (s *State) applyBatch(kind string, offers []OfferIssued, predFallbacks int, degraded bool) error {
	// A batch applies as a unit or not at all. A grant marks its offer ID,
	// task and worker taken, so a later grant naming one again fails its
	// checks, and a failed grant takes back the ones before it.
	next := s.NextOffer
	for i, g := range offers {
		if err := s.grant(kind, g); err != nil {
			for _, u := range offers[:i] {
				t := s.Tasks[u.TaskID]
				s.retractOffer(t)
				t.Status = StatusOpen
			}
			s.NextOffer = next
			return err
		}
		s.NextOffer = max(s.NextOffer, g.OfferID+1)
	}
	s.Counts.Offers += int64(len(offers))
	s.Counts.Batches++
	if degraded {
		s.Counts.DegradedBatches++
	}
	s.Counts.PredFallbacks += int64(predFallbacks)
	return nil
}

// grant issues one offer of a batch if it is legal.
func (s *State) grant(kind string, g OfferIssued) error {
	if g.OfferID <= 0 {
		return applyErr(kind, "offer id %d not positive", g.OfferID)
	}
	if _, dup := s.Offers[g.OfferID]; dup {
		return applyErr(kind, "offer id %d already in use", g.OfferID)
	}
	t, ok := s.Tasks[g.TaskID]
	if !ok {
		return applyErr(kind, "offer %d: task %d not found", g.OfferID, g.TaskID)
	}
	if t.Status != StatusOpen {
		return applyErr(kind, "offer %d: task %d not open", g.OfferID, g.TaskID)
	}
	w, ok := s.Workers[g.WorkerID]
	if !ok {
		return applyErr(kind, "offer %d: worker %d not registered", g.OfferID, g.WorkerID)
	}
	if w.OfferID != 0 {
		return applyErr(kind, "offer %d: worker %d already has a pending offer", g.OfferID, g.WorkerID)
	}
	s.Offers[g.OfferID] = &Offer{ID: g.OfferID, TaskID: g.TaskID, WorkerID: g.WorkerID}
	t.Status = StatusOffered
	t.Offered = g.WorkerID
	t.OfferID = g.OfferID
	w.OfferID = g.OfferID
	return nil
}

func (s *State) applyDecision(kind string, offerID int, accept bool) error {
	off, ok := s.Offers[offerID]
	if !ok {
		return applyErr(kind, "offer %d not found", offerID)
	}
	t := s.Tasks[off.TaskID]
	if t == nil || t.Status != StatusOffered || t.OfferID != offerID {
		return applyErr(kind, "offer %d is stale", offerID)
	}
	delete(s.Offers, offerID)
	if w := s.Workers[off.WorkerID]; w != nil {
		w.OfferID = 0
	}
	t.OfferID = 0
	if accept {
		t.Status = StatusAccepted
		t.Accepted = off.WorkerID
		s.Counts.Accepts++
	} else {
		t.Status = StatusOpen
		t.Offered = 0
		// Never re-offer a declined pair.
		t.Task.Excluded = append(t.Task.Excluded, off.WorkerID)
		s.Counts.Rejects++
	}
	return nil
}

func (s *State) applyOfferRetracted(e OfferRetracted) error {
	off, ok := s.Offers[e.OfferID]
	if !ok {
		return applyErr(KindOfferRetracted, "offer %d not found", e.OfferID)
	}
	delete(s.Offers, e.OfferID)
	if w := s.Workers[off.WorkerID]; w != nil && w.OfferID == e.OfferID {
		w.OfferID = 0
	}
	if t := s.Tasks[off.TaskID]; t != nil && t.OfferID == e.OfferID {
		t.OfferID = 0
		t.Offered = 0
		if t.Status == StatusOffered {
			t.Status = StatusOpen
		}
	}
	s.Counts.Retracted++
	return nil
}

// retractOffer withdraws the task's pending offer, if any, freeing the
// worker. Internal helper of cancel and expiry transitions.
func (s *State) retractOffer(t *Task) {
	if t.OfferID == 0 {
		return
	}
	if off := s.Offers[t.OfferID]; off != nil {
		if w := s.Workers[off.WorkerID]; w != nil {
			w.OfferID = 0
		}
		delete(s.Offers, off.ID)
	}
	t.OfferID = 0
	t.Offered = 0
}

// OpenTasks reports how many tasks are currently waiting for assignment.
func (s *State) OpenTasks() int {
	n := 0
	for _, t := range s.live {
		if t.Status == StatusOpen {
			n++
		}
	}
	return n
}

// byArrivalID orders tasks by (Arrival, ID), the live index's order.
func byArrivalID(a, b *Task) int {
	if c := cmp.Compare(a.Task.Arrival, b.Task.Arrival); c != 0 {
		return c
	}
	return cmp.Compare(a.Task.ID, b.Task.ID)
}
