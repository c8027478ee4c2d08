package core

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The encoding/json reference: the envelope and the two Marshal/Unmarshal
// passes EncodeEvent and DecodeEvent were before they wrote and read the
// wire form by hand. The hand-written codec must write exactly these bytes
// and accept nothing this reference would refuse or read differently.

type jsonEnvelope struct {
	K string          `json:"k"`
	D json.RawMessage `json:"d,omitempty"`
}

func jsonEncodeEvent(ev Event) ([]byte, error) {
	d, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	return json.Marshal(jsonEnvelope{K: ev.Kind(), D: d})
}

func jsonDecodeEvent(b []byte) (Event, error) {
	var env jsonEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, err
	}
	zero, ok := eventOfKind[env.K]
	if !ok {
		return nil, errors.New("unknown event kind")
	}
	p := reflect.New(reflect.TypeOf(zero))
	if len(env.D) > 0 {
		if err := json.Unmarshal(env.D, p.Interface()); err != nil {
			return nil, err
		}
	}
	return p.Elem().Interface().(Event), nil
}

// eventTypes holds the zero value of every event type.
var eventTypes = []Event{
	TaskSubmitted{}, TaskCancelled{}, WorkerRegistered{}, WorkerReported{},
	TickAdvanced{}, BatchAssigned{}, DegradedBatch{},
	OfferAccepted{}, OfferRejected{}, OfferRetracted{},
}

var eventOfKind = func() map[string]Event {
	m := map[string]Event{}
	for _, ev := range eventTypes {
		m[ev.Kind()] = ev
	}
	return m
}()

var edgeInts = []int{0, 1, -1, 9, 10, math.MaxInt, math.MinInt, math.MaxInt - 1, math.MinInt + 1, min(1<<53, math.MaxInt), max(-(1 << 53), math.MinInt)}

func randomInt(rng *rand.Rand) int {
	if rng.Intn(4) == 0 {
		return edgeInts[rng.Intn(len(edgeInts))]
	}
	v := int(rng.Int63() >> rng.Intn(63))
	if rng.Intn(3) == 0 {
		v = -v
	}
	return v
}

var edgeFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-7, -1e-7, 1e-6, 9.999999999999999e-7,
	1e21, -1e21, 9.999999999999999e20, 1e20, 123456789012345680000, math.MaxFloat64,
	-math.MaxFloat64, 2.2250738585072014e-308, 1e-300, 1e300, 0.1, 0.2, 1.5, 100, 1e-5,
	0.000001234567890123456, 1.7976931348623157e308, 4.25, 0.77,
}

func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 1:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 2:
		return float64(rng.Intn(200) - 100)
	case 3:
		return (rng.Float64() - 0.5) * math.Pow10(rng.Intn(60)-30)
	}
	return rng.Float64() * 100
}

// fill sets every exported field of v, recursively, to a random value. A
// field of a kind it has no generator for fails the test, so a new event
// field cannot slip past the codec tests unfilled.
func fill(t *testing.T, rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(int64(randomInt(rng)))
	case reflect.Float64:
		v.SetFloat(randomFloat(rng))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, rng, v.Field(i))
			}
		}
	case reflect.Slice:
		// nil, empty, or up to six elements.
		n := rng.Intn(8) - 1
		if n < 0 {
			return
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fill(t, rng, s.Index(i))
		}
		v.Set(s)
	default:
		t.Fatalf("no generator for a field of type %s", v.Type())
	}
}

func filledEvent(t *testing.T, rng *rand.Rand, zero Event) Event {
	v := reflect.New(reflect.TypeOf(zero)).Elem()
	fill(t, rng, v)
	return v.Interface().(Event)
}

// TestEncodeEventMatchesJSON: over random events of every type, every
// exported field filled, EncodeEvent writes the bytes encoding/json writes,
// and DecodeEvent reads them back to the event the reference reads.
func TestEncodeEventMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		ev := filledEvent(t, rng, eventTypes[i%len(eventTypes)])
		want, err := jsonEncodeEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodeEvent(ev)
		if err != nil {
			t.Fatalf("encode %#v: %v", ev, err)
		}
		if string(got) != string(want) {
			t.Fatalf("encode %#v:\n got %s\nwant %s", ev, got, want)
		}
		dec, err := DecodeEvent(got)
		if err != nil {
			t.Fatalf("decode %s: %v", got, err)
		}
		ref, err := jsonDecodeEvent(got)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, ref) {
			t.Fatalf("decode %s: got %#v, reference %#v", got, dec, ref)
		}
		if !reflect.DeepEqual(dec, emptyOffersAsNil(ev)) {
			t.Fatalf("round trip %#v -> %s -> %#v", ev, got, dec)
		}
	}
}

// TestNonFiniteFloatsRefused: a NaN or ±Inf in any float field of any
// event fails EncodeEvent, as it fails encoding/json, and Apply refuses it
// on a state it leaves as it was.
func TestNonFiniteFloatsRefused(t *testing.T) {
	for _, zero := range eventTypes {
		typ := reflect.TypeOf(zero)
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).Type.Kind() != reflect.Float64 {
				continue
			}
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				// Legal on the state below but for the bad value: a new
				// task, a report from worker 1, a new worker 2.
				v := reflect.New(typ).Elem()
				for name, id := range map[string]int64{"TaskID": 1, "WorkerID": 1} {
					if f := v.FieldByName(name); f.IsValid() {
						f.SetInt(id)
					}
				}
				if typ == reflect.TypeOf(WorkerRegistered{}) {
					v.FieldByName("WorkerID").SetInt(2)
				}
				v.Field(i).SetFloat(bad)
				ev := v.Interface().(Event)
				if _, err := jsonEncodeEvent(ev); err == nil {
					t.Fatalf("reference encoded %#v", ev)
				}
				if b, err := EncodeEvent(ev); err == nil {
					t.Errorf("EncodeEvent(%#v) = %s, want an error", ev, b)
				}
				st := NewState()
				if err := st.Apply(WorkerRegistered{WorkerID: 1, Detour: 1, Speed: 1}); err != nil {
					t.Fatal(err)
				}
				before := st.Digest()
				var ae *ApplyError
				if err := st.Apply(ev); !errors.As(err, &ae) {
					t.Errorf("Apply(%#v) = %v, want an *ApplyError", ev, err)
				}
				if st.Digest() != before {
					t.Errorf("a refused %#v changed the state", ev)
				}
			}
		}
	}
}

// nonCanonical is valid JSON the reference may well read, or near-JSON it
// refuses, but not the one form the codec writes: DecodeEvent answers each
// with a *CodecError.
var nonCanonical = []string{
	``,
	`not json`,
	`{ "k":"offer_accepted","d":{"offerId":1}}`,
	`{"k":"offer_accepted", "d":{"offerId":1}}`,
	`{"k":"offer_accepted","d":{"offerId": 1}}`,
	"{\"k\":\"offer_accepted\",\"d\":{\"offerId\":1}}\n",
	`{"d":{"offerId":1},"k":"offer_accepted"}`,
	`{"k":"task_submitted","d":{"x":1.5,"taskId":3,"y":2.5,"deadline":9}}`,
	`{"k":"task_submitted","d":{"taskId":3,"x":1.5,"y":2.5,"deadline":9,"reward":1,"reward":2}}`,
	`{"k":"task_submitted","d":{"taskId":3,"x":1.5,"y":2.5,"deadline":9,"extra":1}}`,
	`{"k":"worker_reported","d":{"workerId":4,"x":1e400,"y":0}}`,
	`{"k":"worker_reported","d":{"workerId":4,"x":-1e400,"y":0}}`,
	`{"k":"worker_reported","d":{"workerId":4,"x":.5,"y":0}}`,
	`{"k":"worker_reported","d":{"workerId":4,"x":1.,"y":0}}`,
	`{"k":"worker_reported","d":{"workerId":4,"x":01,"y":0}}`,
	`{"k":"worker_reported","d":{"workerId":4,"x":1e,"y":0}}`,
	`{"k":"worker_reported","d":{"workerId":4,"x":+1,"y":0}}`,
	`{"k":"worker_reported","d":{"workerId":4,"x":NaN,"y":0}}`,
	`{"k":"worker_reported","d":{"workerId":4,"x":"1","y":0}}`,
	`{"k":"task_cancelled","d":{"taskId":1.5}}`,
	`{"k":"task_cancelled","d":{"taskId":1e3}}`,
	`{"k":"task_cancelled","d":{"taskId":-}}`,
	`{"k":"task_cancelled","d":{"taskId":9223372036854775808}}`,
	`{"k":"task_cancelled","d":{"taskId":-9223372036854775809}}`,
	`{"k":"task_cancelled","d":{"taskId":null}}`,
	`{"k":"task_cancelled","d":{}}`,
	`{"k":"tick_advanced"}`,
	`{"k":"tick_advanced","d":null}`,
	`{"k":"task\u005fcancelled","d":{"taskId":1}}`,
	`{"k":"martian","d":{}}`,
	`{"k":"batch_assigned","d":{"offers":null}}`,
	`{"k":"batch_assigned","d":{"predFallbacks":1,"offers":[]}}`,
	`{"k":"batch_assigned","d":{"offers":[],}}`,
	`{"k":"batch_assigned","d":{"offers":[{"offerId":1,"taskId":2,"workerId":3},]}}`,
	`{"k":"batch_assigned","d":{"offers":[{"taskId":2,"offerId":1,"workerId":3}]}}`,
	`{"k":"batch_assigned","d":{"offers":[{"offerId":1,"taskId":2,"workerId":3}]`,
	`{"k":"offer_accepted","d":{"offerId":1}}}`,
}

func TestDecodeEventRefusesNonCanonical(t *testing.T) {
	for _, s := range nonCanonical {
		ev, err := DecodeEvent([]byte(s))
		var ce *CodecError
		if !errors.As(err, &ce) {
			t.Errorf("DecodeEvent(%s) = %#v, %v; want a *CodecError", s, ev, err)
		}
	}
	// What the canonical form leaves open: an optional field written at its
	// zero value, an empty offer list, and any JSON spelling of a float.
	for s, want := range map[string]Event{
		`{"k":"task_submitted","d":{"taskId":3,"x":15e-1,"y":2.50E0,"deadline":9,"reward":0}}`: TaskSubmitted{TaskID: 3, X: 1.5, Y: 2.5, Deadline: 9},
		`{"k":"batch_assigned","d":{"offers":[],"predFallbacks":0}}`:                           BatchAssigned{Offers: []OfferIssued{}},
		`{"k":"degraded_batch","d":{"predFallbacks":2}}`:                                       DegradedBatch{PredFallbacks: 2},
		`{"k":"offer_rejected","d":{"offerId":-0}}`:                                            OfferRejected{},
		`{"k":"task_cancelled","d":{"taskId":-9223372036854775808}}`:                           TaskCancelled{TaskID: math.MinInt},
	} {
		got, err := DecodeEvent([]byte(s))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("DecodeEvent(%s) = %#v, %v; want %#v", s, got, err, want)
		}
	}
}

// TestCodecAllocs, in make perfcheck: a warmed EncodeEvent allocates only
// the slice it returns, and a warmed DecodeEvent at most the event it
// returns plus a batch's offer slice.
func TestCodecAllocs(t *testing.T) {
	big := BatchAssigned{PredFallbacks: 3}
	for i := 1; i <= 100; i++ {
		big.Offers = append(big.Offers, OfferIssued{OfferID: i, TaskID: 1000 + i, WorkerID: 2000 + i})
	}
	for _, ev := range append(codecEvents[:len(codecEvents):len(codecEvents)], big) {
		b, err := EncodeEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = EncodeEvent(ev) }); n != 1 {
			t.Errorf("EncodeEvent(%s): %v allocations, want 1", ev.Kind(), n)
		}
		limit := 1.0
		switch ev.(type) {
		case BatchAssigned, DegradedBatch:
			limit = 2
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = DecodeEvent(b) }); n > limit {
			t.Errorf("DecodeEvent(%s): %v allocations, want at most %v", b, n, limit)
		}
	}
}
