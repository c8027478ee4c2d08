package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/geo"
)

// envelope is the wire form of one event: a kind tag plus the event's own
// JSON. Compact field names keep log records small; the payload is still
// human-readable with standard tools.
type envelope struct {
	K string          `json:"k"`
	D json.RawMessage `json:"d,omitempty"`
}

// CodecError reports an event payload that cannot be decoded — an unknown
// kind (a log written by a newer build) or malformed JSON (corruption that
// slipped past the WAL checksum, which protects frames, not semantics).
type CodecError struct {
	Kind   string
	Reason string
}

func (e *CodecError) Error() string {
	if e.Kind == "" {
		return fmt.Sprintf("core: decode event: %s", e.Reason)
	}
	return fmt.Sprintf("core: decode event %q: %s", e.Kind, e.Reason)
}

// EncodeEvent renders ev to its wire form.
func EncodeEvent(ev Event) ([]byte, error) {
	d, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{K: ev.Kind(), D: d})
}

// DecodeEvent parses one wire-form event. Unknown kinds yield a *CodecError
// rather than a silent skip: a log is either fully understood or the caller
// decides what to drop.
func DecodeEvent(b []byte) (Event, error) {
	var env envelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, &CodecError{Reason: err.Error()}
	}
	var ev Event
	switch env.K {
	case KindTaskSubmitted:
		ev = &TaskSubmitted{}
	case KindTaskCancelled:
		ev = &TaskCancelled{}
	case KindWorkerRegistered:
		ev = &WorkerRegistered{}
	case KindWorkerReported:
		ev = &WorkerReported{}
	case KindTickAdvanced:
		return TickAdvanced{}, nil
	case KindBatchAssigned:
		ev = &BatchAssigned{}
	case KindDegradedBatch:
		ev = &DegradedBatch{}
	case KindOfferAccepted:
		ev = &OfferAccepted{}
	case KindOfferRejected:
		ev = &OfferRejected{}
	case KindOfferRetracted:
		ev = &OfferRetracted{}
	default:
		return nil, &CodecError{Kind: env.K, Reason: "unknown event kind"}
	}
	if len(env.D) > 0 {
		if err := json.Unmarshal(env.D, ev); err != nil {
			return nil, &CodecError{Kind: env.K, Reason: err.Error()}
		}
	}
	// Return by value so Apply's type switch sees the same concrete types
	// live callers construct.
	switch e := ev.(type) {
	case *TaskSubmitted:
		return *e, nil
	case *TaskCancelled:
		return *e, nil
	case *WorkerRegistered:
		return *e, nil
	case *WorkerReported:
		return *e, nil
	case *BatchAssigned:
		return *e, nil
	case *DegradedBatch:
		return *e, nil
	case *OfferAccepted:
		return *e, nil
	case *OfferRejected:
		return *e, nil
	case *OfferRetracted:
		return *e, nil
	}
	return nil, &CodecError{Kind: env.K, Reason: "unreachable"}
}

// snapshotVersion guards the snapshot layout; bump on incompatible change.
const snapshotVersion = 1

// Snapshot DTOs: maps become ID-sorted slices so the encoding — and
// therefore Digest — is byte-deterministic.
type taskSnap struct {
	ID       int        `json:"id"`
	X        float64    `json:"x"`
	Y        float64    `json:"y"`
	Arrival  int        `json:"arrival"`
	Deadline int        `json:"deadline"`
	Reward   float64    `json:"reward,omitempty"`
	Excluded []int      `json:"excluded,omitempty"`
	Status   TaskStatus `json:"status"`
	Offered  int        `json:"offered,omitempty"`
	Accepted int        `json:"accepted,omitempty"`
	OfferID  int        `json:"offerId,omitempty"`
}

type workerSnap struct {
	ID      int         `json:"id"`
	Detour  float64     `json:"detour"`
	Speed   float64     `json:"speed"`
	MR      float64     `json:"mr"`
	Online  bool        `json:"online,omitempty"`
	Trace   []geo.Point `json:"trace,omitempty"`
	OfferID int         `json:"offerId,omitempty"`
}

type offerSnap struct {
	ID       int `json:"id"`
	TaskID   int `json:"taskId"`
	WorkerID int `json:"workerId"`
}

type snapshotFile struct {
	Version   int          `json:"version"`
	Tick      int          `json:"tick"`
	NextTask  int          `json:"nextTask"`
	NextOffer int          `json:"nextOffer"`
	Applied   uint64       `json:"applied"`
	Tasks     []taskSnap   `json:"tasks"`
	Workers   []workerSnap `json:"workers"`
	Offers    []offerSnap  `json:"offers"`
	Counts    Counts       `json:"counts"`
}

// EncodeSnapshot renders the full state to deterministic bytes: the same
// state always encodes to the same bytes regardless of map iteration order
// or the event order that produced it.
func (s *State) EncodeSnapshot() []byte {
	f := snapshotFile{
		Version: snapshotVersion, Tick: s.Tick,
		NextTask: s.NextTask, NextOffer: s.NextOffer, Applied: s.Applied,
		Tasks:   make([]taskSnap, 0, len(s.Tasks)),
		Workers: make([]workerSnap, 0, len(s.Workers)),
		Offers:  make([]offerSnap, 0, len(s.Offers)),
		Counts:  s.Counts,
	}
	for _, t := range s.Tasks {
		f.Tasks = append(f.Tasks, taskSnap{
			ID: t.Task.ID, X: t.Task.Loc.X, Y: t.Task.Loc.Y,
			Arrival: t.Task.Arrival, Deadline: t.Task.Deadline, Reward: t.Task.Reward,
			Excluded: t.Task.Excluded, Status: t.Status,
			Offered: t.Offered, Accepted: t.Accepted, OfferID: t.OfferID,
		})
	}
	sort.Slice(f.Tasks, func(i, j int) bool { return f.Tasks[i].ID < f.Tasks[j].ID })
	for _, w := range s.Workers {
		f.Workers = append(f.Workers, workerSnap{
			ID: w.ID, Detour: w.Detour, Speed: w.Speed, MR: w.MR,
			Online: w.Online, Trace: w.Trace, OfferID: w.OfferID,
		})
	}
	sort.Slice(f.Workers, func(i, j int) bool { return f.Workers[i].ID < f.Workers[j].ID })
	for _, o := range s.Offers {
		f.Offers = append(f.Offers, offerSnap{ID: o.ID, TaskID: o.TaskID, WorkerID: o.WorkerID})
	}
	sort.Slice(f.Offers, func(i, j int) bool { return f.Offers[i].ID < f.Offers[j].ID })
	b, err := json.Marshal(f)
	if err != nil {
		// Every field is a plain value; marshal cannot fail.
		panic(fmt.Sprintf("core: encode snapshot: %v", err))
	}
	return b
}

// DecodeSnapshot rebuilds a State from EncodeSnapshot bytes.
func DecodeSnapshot(b []byte) (*State, error) {
	var f snapshotFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	if f.Version != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, want %d", f.Version, snapshotVersion)
	}
	s := NewState()
	s.Tick, s.NextTask, s.NextOffer, s.Applied = f.Tick, f.NextTask, f.NextOffer, f.Applied
	s.Counts = f.Counts
	for _, t := range f.Tasks {
		s.Tasks[t.ID] = &Task{
			Task: assignTask(t), Status: t.Status,
			Offered: t.Offered, Accepted: t.Accepted, OfferID: t.OfferID,
		}
	}
	for _, w := range f.Workers {
		s.Workers[w.ID] = &Worker{
			ID: w.ID, Detour: w.Detour, Speed: w.Speed, MR: w.MR,
			Online: w.Online, Trace: w.Trace, OfferID: w.OfferID,
		}
	}
	for _, o := range f.Offers {
		s.Offers[o.ID] = &Offer{ID: o.ID, TaskID: o.TaskID, WorkerID: o.WorkerID}
	}
	for _, t := range s.Tasks {
		if t.Status == StatusOpen || t.Status == StatusOffered {
			s.live = append(s.live, t)
		}
	}
	slices.SortFunc(s.live, byArrivalID)
	return s, nil
}

func assignTask(t taskSnap) assign.Task {
	return assign.Task{
		ID: t.ID, Loc: geo.Pt(t.X, t.Y),
		Arrival: t.Arrival, Deadline: t.Deadline, Reward: t.Reward, Excluded: t.Excluded,
	}
}

// Digest is the hex SHA-256 of the deterministic snapshot encoding — two
// states are bit-identical exactly when their digests match, which is what
// the crash-replay equivalence tests assert.
func (s *State) Digest() string {
	h := sha256.Sum256(s.EncodeSnapshot())
	return hex.EncodeToString(h[:])
}
