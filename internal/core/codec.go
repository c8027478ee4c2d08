package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/geo"
)

// The wire form of one event is the JSON object {"k":kind,"d":payload}: the
// kind tag, then the event's fields under the compact names of their struct
// tags (events.go), in struct order, with no whitespace, and with reward,
// offers and predFallbacks left out when zero or empty. Those are the bytes
// encoding/json writes for the envelope and the event structs, the bytes
// every recorded log holds; the appender and the reader below write and
// read them by hand, without reflection. The reader takes that canonical
// form only — fixed key order, an optional field absent or present, any
// JSON number spelling for a float and a JSON integer for an int — and
// answers anything else with a *CodecError: a log is written by this code,
// so a record in another form is not one it wrote. encoding/json is the
// reference the tests hold both to.

// CodecError reports an event payload that cannot be decoded — an unknown
// kind (a log written by a newer build) or bytes that are not the canonical
// wire form (corruption that slipped past the WAL checksum, which protects
// frames, not semantics).
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

// encodeScratch is the stack buffer an event is written into before it is
// copied out at its exact length. Only a batch can outgrow it; a batch's
// bound is maxBatchLen.
const encodeScratch = 512

// maxBatchLen bounds the wire form of a batch of n offers: the envelope of
// the longest kind with a predFallbacks of 20 digits, and 95 bytes an offer
// (three keys, three 20-digit ints, braces and a comma).
func maxBatchLen(n int) int { return 80 + 95*n }

// EncodeEvent renders ev to its wire form. A NaN or infinite float has no
// JSON spelling and is an error.
func EncodeEvent(ev Event) ([]byte, error) {
	if kind, field, v := nonFinite(ev); field != "" {
		return nil, fmt.Errorf("core: encode %s: %s %v has no JSON spelling", kind, field, v)
	}
	var offers []OfferIssued
	switch e := ev.(type) {
	case BatchAssigned:
		offers = e.Offers
	case DegradedBatch:
		offers = e.Offers
	}
	if n := maxBatchLen(len(offers)); n > encodeScratch {
		return appendEvent(make([]byte, 0, n), ev)
	}
	var scratch [encodeScratch]byte
	b, err := appendEvent(scratch[:0], ev)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(b), nil
}

// appendEvent appends ev's wire form to b; every float of ev is finite.
func appendEvent(b []byte, ev Event) ([]byte, error) {
	b = append(b, `{"k":"`...)
	b = append(b, ev.Kind()...)
	b = append(b, `","d":`...)
	switch e := ev.(type) {
	case TaskSubmitted:
		b = appendInt(b, `{"taskId":`, e.TaskID)
		b = appendFloat(b, `,"x":`, e.X)
		b = appendFloat(b, `,"y":`, e.Y)
		b = appendInt(b, `,"deadline":`, e.Deadline)
		if e.Reward != 0 {
			b = appendFloat(b, `,"reward":`, e.Reward)
		}
	case TaskCancelled:
		b = appendInt(b, `{"taskId":`, e.TaskID)
	case WorkerRegistered:
		b = appendInt(b, `{"workerId":`, e.WorkerID)
		b = appendFloat(b, `,"detour":`, e.Detour)
		b = appendFloat(b, `,"speed":`, e.Speed)
		b = appendFloat(b, `,"mr":`, e.MR)
	case WorkerReported:
		b = appendInt(b, `{"workerId":`, e.WorkerID)
		b = appendFloat(b, `,"x":`, e.X)
		b = appendFloat(b, `,"y":`, e.Y)
	case TickAdvanced:
		b = append(b, '{')
	case BatchAssigned:
		b = appendBatch(b, e.Offers, e.PredFallbacks)
	case DegradedBatch:
		b = appendBatch(b, e.Offers, e.PredFallbacks)
	case OfferAccepted:
		b = appendInt(b, `{"offerId":`, e.OfferID)
	case OfferRejected:
		b = appendInt(b, `{"offerId":`, e.OfferID)
	case OfferRetracted:
		b = appendInt(b, `{"offerId":`, e.OfferID)
	default:
		return nil, fmt.Errorf("core: encode %s: unknown event type %T", ev.Kind(), ev)
	}
	return append(b, "}}"...), nil
}

func appendBatch(b []byte, offers []OfferIssued, predFallbacks int) []byte {
	b = append(b, '{')
	key := `"predFallbacks":`
	if len(offers) > 0 {
		b = append(b, `"offers":[`...)
		for i, o := range offers {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendInt(b, `{"offerId":`, o.OfferID)
			b = appendInt(b, `,"taskId":`, o.TaskID)
			b = appendInt(b, `,"workerId":`, o.WorkerID)
			b = append(b, '}')
		}
		b = append(b, ']')
		key = `,"predFallbacks":`
	}
	if predFallbacks != 0 {
		b = appendInt(b, key, predFallbacks)
	}
	return b
}

func appendInt(b []byte, key string, v int) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// appendFloat writes a finite f as encoding/json does: the shortest
// representation in 'f' form, or in 'e' form below 1e-6 and from 1e21 up,
// with a negative exponent's leading zero dropped (1e-07 → 1e-7).
func appendFloat(b []byte, key string, f float64) []byte {
	b = append(b, key...)
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// DecodeEvent parses one wire-form event. Unknown kinds yield a *CodecError
// rather than a silent skip: a log is either fully understood or the caller
// decides what to drop. Events come back by value, the concrete types live
// callers construct and Apply's type switch sees.
func DecodeEvent(b []byte) (Event, error) {
	r := reader{b: b}
	r.lit(`{"k":"`)
	kind := r.until('"')
	if r.err != "" {
		return nil, &CodecError{Reason: r.err}
	}
	r.lit(`,"d":`)
	var ev Event
	switch string(kind) {
	case KindTaskSubmitted:
		var e TaskSubmitted
		e.TaskID = r.int(`{"taskId":`)
		e.X = r.float(`,"x":`)
		e.Y = r.float(`,"y":`)
		e.Deadline = r.int(`,"deadline":`)
		if r.opt(`,"reward":`) {
			e.Reward = r.float("")
		}
		ev = e
	case KindTaskCancelled:
		ev = TaskCancelled{TaskID: r.int(`{"taskId":`)}
	case KindWorkerRegistered:
		var e WorkerRegistered
		e.WorkerID = r.int(`{"workerId":`)
		e.Detour = r.float(`,"detour":`)
		e.Speed = r.float(`,"speed":`)
		e.MR = r.float(`,"mr":`)
		ev = e
	case KindWorkerReported:
		var e WorkerReported
		e.WorkerID = r.int(`{"workerId":`)
		e.X = r.float(`,"x":`)
		e.Y = r.float(`,"y":`)
		ev = e
	case KindTickAdvanced:
		r.lit("{")
		ev = TickAdvanced{}
	case KindBatchAssigned:
		offers, fallbacks := r.batch()
		ev = BatchAssigned{Offers: offers, PredFallbacks: fallbacks}
	case KindDegradedBatch:
		offers, fallbacks := r.batch()
		ev = DegradedBatch{Offers: offers, PredFallbacks: fallbacks}
	case KindOfferAccepted:
		ev = OfferAccepted{OfferID: r.int(`{"offerId":`)}
	case KindOfferRejected:
		ev = OfferRejected{OfferID: r.int(`{"offerId":`)}
	case KindOfferRetracted:
		ev = OfferRetracted{OfferID: r.int(`{"offerId":`)}
	default:
		return nil, &CodecError{Kind: string(kind), Reason: "unknown event kind"}
	}
	r.lit("}}")
	if r.err == "" && r.i < len(b) {
		r.fail("trailing bytes")
	}
	if r.err != "" {
		return nil, &CodecError{Kind: string(kind), Reason: r.err}
	}
	return ev, nil
}

// reader walks one event in the canonical wire form. The first mismatch
// sticks: every later call reads nothing, and DecodeEvent reports that one.
type reader struct {
	b   []byte
	i   int
	err string
}

func (r *reader) fail(format string, args ...any) {
	if r.err == "" {
		r.err = fmt.Sprintf("byte %d: %s", r.i, fmt.Sprintf(format, args...))
	}
}

// opt consumes s if it comes next.
func (r *reader) opt(s string) bool {
	if r.err != "" || len(r.b)-r.i < len(s) || string(r.b[r.i:r.i+len(s)]) != s {
		return false
	}
	r.i += len(s)
	return true
}

// lit consumes s, which must come next.
func (r *reader) lit(s string) {
	if !r.opt(s) {
		r.fail("want %q", s)
	}
}

// until consumes the bytes up to c and c itself, returning the bytes.
func (r *reader) until(c byte) []byte {
	if r.err != "" {
		return nil
	}
	n := bytes.IndexByte(r.b[r.i:], c)
	if n < 0 {
		r.fail("no closing %q", c)
		return nil
	}
	s := r.b[r.i : r.i+n]
	r.i += n + 1
	return s
}

// digits consumes a run of decimal digits and reports its length.
func (r *reader) digits() int {
	if r.err != "" {
		return 0
	}
	j := r.i
	for j < len(r.b) && '0' <= r.b[j] && r.b[j] <= '9' {
		j++
	}
	n := j - r.i
	r.i = j
	return n
}

// number consumes the JSON number after key — only its integer part
// unless fraction — and returns its bytes.
func (r *reader) number(key string, fraction bool) []byte {
	r.lit(key)
	start := r.i
	r.opt("-")
	if !r.opt("0") && r.digits() == 0 {
		r.fail("want a number")
	}
	if fraction {
		if r.opt(".") && r.digits() == 0 {
			r.fail("want a digit")
		}
		if r.opt("e") || r.opt("E") {
			if !r.opt("+") {
				r.opt("-")
			}
			if r.digits() == 0 {
				r.fail("want a digit")
			}
		}
	}
	if r.err != "" {
		return nil
	}
	return r.b[start:r.i]
}

// int reads the JSON integer after key, which must fit an int.
func (r *reader) int(key string) int {
	s := r.number(key, false)
	if len(s) == 0 {
		return 0
	}
	neg := s[0] == '-'
	if neg {
		s = s[1:]
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var u uint64
	for _, c := range s {
		d := uint64(c - '0')
		if u > (limit-d)/10 {
			r.fail("integer out of range")
			return 0
		}
		u = u*10 + d
	}
	v := int64(u)
	if neg {
		v = -v
	}
	return int(v)
}

// float reads the JSON number after key, which must round to a finite
// float64.
func (r *reader) float(key string) float64 {
	s := r.number(key, true)
	if len(s) == 0 {
		return 0
	}
	f, err := strconv.ParseFloat(string(s), 64)
	if err != nil {
		r.fail("number %s out of range", s)
		return 0
	}
	return f
}

// batch reads a batch payload: its offers, nil when absent and empty when
// written as [], and its predFallbacks.
func (r *reader) batch() (offers []OfferIssued, predFallbacks int) {
	r.lit("{")
	key := `"predFallbacks":`
	if r.opt(`"offers":[`) {
		// In the canonical form every '{' left is an offer's.
		offers = make([]OfferIssued, 0, bytes.Count(r.b[r.i:], []byte("{")))
		for r.err == "" && !r.opt("]") {
			if len(offers) > 0 {
				r.lit(",")
			}
			var o OfferIssued
			o.OfferID = r.int(`{"offerId":`)
			o.TaskID = r.int(`,"taskId":`)
			o.WorkerID = r.int(`,"workerId":`)
			r.lit("}")
			offers = append(offers, o)
		}
		key = `,"predFallbacks":`
	}
	if r.opt(key) {
		predFallbacks = r.int("")
	}
	return offers, predFallbacks
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
