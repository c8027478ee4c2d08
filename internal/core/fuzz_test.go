package core

import (
	"reflect"
	"testing"
)

// emptyOffersAsNil folds the one representation the wire form does not
// distinguish: an empty offer list is omitted on encode, so `"offers":[]`
// decodes to an empty slice and comes back nil.
func emptyOffersAsNil(ev Event) Event {
	switch e := ev.(type) {
	case BatchAssigned:
		if len(e.Offers) == 0 {
			e.Offers = nil
		}
		return e
	case DegradedBatch:
		if len(e.Offers) == 0 {
			e.Offers = nil
		}
		return e
	}
	return ev
}

// FuzzDecodeEvent feeds arbitrary bytes to the WAL's event decoder: it must
// never panic, and whatever it accepts must survive encode → decode as an
// equal event.
func FuzzDecodeEvent(f *testing.F) {
	for _, ev := range codecEvents {
		b, err := EncodeEvent(ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ev, err := DecodeEvent(b)
		if err != nil {
			return
		}
		enc, err := EncodeEvent(ev)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", ev, err)
		}
		again, err := DecodeEvent(enc)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", enc, err)
		}
		if !reflect.DeepEqual(emptyOffersAsNil(ev), emptyOffersAsNil(again)) {
			t.Fatalf("round trip changed the event: %#v -> %s -> %#v", ev, enc, again)
		}
	})
}

// FuzzDecodeSnapshot does the same for snapshots: no panic in decode or in
// re-encoding what decoded, and the re-decoded state digests identically.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(lifecycle(f).EncodeSnapshot())
	f.Add(NewState().EncodeSnapshot())
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := DecodeSnapshot(b)
		if err != nil {
			return
		}
		again, err := DecodeSnapshot(st.EncodeSnapshot())
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if again.Digest() != st.Digest() {
			t.Fatalf("round trip changed the digest: %s -> %s", st.Digest(), again.Digest())
		}
	})
}
