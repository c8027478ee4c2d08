package replay_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/obs"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/replay"
	"github.com/spatialcrowd/tamp/internal/server"
	"github.com/spatialcrowd/tamp/internal/traj"
	"github.com/spatialcrowd/tamp/internal/wal"
)

// httpJSON posts/gets JSON against the live server, failing on transport
// errors; the status code comes back for protocol assertions.
func httpJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

type offer struct {
	OfferID int `json:"offerId"`
	TaskID  int `json:"taskId"`
}

// recordLiveRun drives a WAL-backed server through several batches of the
// four-party protocol and returns the log directory and the server's final
// state digest.
func recordLiveRun(t *testing.T, liveAssigner assign.Assigner) (dir, digest string) {
	t.Helper()
	dir = t.TempDir()
	s, err := server.New(server.Config{
		Grid:     geo.Grid{Cols: 100, Rows: 50},
		Assigner: liveAssigner,
		WALDir:   dir, SnapshotEvery: 1 << 20, // keep full history in segments
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	u := ts.URL

	for id := 1; id <= 3; id++ {
		httpJSON(t, "POST", u+"/api/workers", map[string]any{
			"id": id, "detourKm": 8, "speed": 1, "mr": 0.8,
		}, nil)
	}
	// Straight eastward walks from separated starting columns.
	starts := []float64{10, 40, 70}
	for step := 0; step < 5; step++ {
		for id := 1; id <= 3; id++ {
			httpJSON(t, "POST", fmt.Sprintf("%s/api/workers/%d/location", u, id),
				map[string]any{"x": starts[id-1] + float64(step), "y": 10.0}, nil)
		}
	}
	// Three rounds: tasks near each worker's projected route, a batch, and
	// alternating accept/reject decisions.
	for round := 0; round < 3; round++ {
		for id := 1; id <= 3; id++ {
			httpJSON(t, "POST", u+"/api/tasks", map[string]any{
				"x": starts[id-1] + 7 + float64(round), "y": 10.0, "deadline": 30,
			}, nil)
		}
		httpJSON(t, "POST", u+"/api/batch", nil, nil)
		for id := 1; id <= 3; id++ {
			var offers []offer
			httpJSON(t, "GET", fmt.Sprintf("%s/api/workers/%d/offers", u, id), nil, &offers)
			for _, off := range offers {
				action := "accept"
				if (id+round)%2 == 0 {
					action = "reject"
				}
				if code := httpJSON(t, "POST", fmt.Sprintf("%s/api/offers/%d/%s", u, off.OfferID, action), nil, nil); code != http.StatusOK {
					t.Fatalf("%s offer %d: status %d", action, off.OfferID, code)
				}
			}
		}
		httpJSON(t, "POST", u+"/api/tick", nil, nil)
	}
	digest = s.StateDigest()
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, digest
}

// TestReplayIsDeterministicAcrossAssigners is the acceptance check for the
// replay bridge: a recorded live run replays through three different
// assigners (PPI, KM and Greedy), and repeating each replay produces
// identical plans. Replaying with the same assigner the live run used
// reproduces the live plans exactly, and the replayed state always lands on
// the live run's digest regardless of which assigner produced the
// counterfactuals.
func TestReplayIsDeterministicAcrossAssigners(t *testing.T) {
	live := assign.PPI{A: 1.5}
	dir, digest := recordLiveRun(t, live)

	run := func(a assign.Assigner) *replay.Report {
		rep, err := replay.Run(context.Background(), dir, replay.Options{Assigner: a})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	ppi1, ppi2 := run(live), run(live)
	km1, km2 := run(assign.KM{}), run(assign.KM{})
	gr1, gr2 := run(assign.Greedy{}), run(assign.Greedy{})

	for _, rep := range []*replay.Report{ppi1, ppi2, km1, km2, gr1, gr2} {
		if rep.Torn != nil {
			t.Fatalf("%s: unexpected torn tail: %v", rep.Assigner, rep.Torn)
		}
		if len(rep.Batches) != 3 {
			t.Fatalf("%s: batches = %d, want 3", rep.Assigner, len(rep.Batches))
		}
		if rep.Final.Digest() != digest {
			t.Errorf("%s: replayed state differs from the live run", rep.Assigner)
		}
	}
	if ppi1.LivePairs == 0 {
		t.Fatal("live run made no offers; scenario is degenerate")
	}
	// Identical plans across repeated replays, for every assigner.
	if !reflect.DeepEqual(ppi1.Batches, ppi2.Batches) {
		t.Error("PPI replays produced different plans")
	}
	if !reflect.DeepEqual(km1.Batches, km2.Batches) {
		t.Error("KM replays produced different plans")
	}
	if !reflect.DeepEqual(gr1.Batches, gr2.Batches) {
		t.Error("Greedy replays produced different plans")
	}
	// Replaying with the live assigner is a full reconstruction: the
	// counterfactual plan at every batch equals the plan the live run
	// committed, offer IDs included.
	for i, bp := range ppi1.Batches {
		if !reflect.DeepEqual(bp.Live, bp.Replay) {
			t.Errorf("batch %d: live plan %+v, PPI replay %+v", i, bp.Live, bp.Replay)
		}
	}
	if ppi1.AgreementRate() != 1 {
		t.Errorf("PPI agreement = %v, want 1", ppi1.AgreementRate())
	}
	// KM sees the same inputs: it proposes the same number of pairs even
	// when it picks different ones.
	if km1.ReplayPairs == 0 {
		t.Error("KM replay proposed no pairs")
	}
	if gr1.ReplayPairs == 0 {
		t.Error("Greedy replay proposed no pairs")
	}
}

// smallLog writes a short hand-built event log and returns its events.
func smallLog(t *testing.T, dir string) []core.Event {
	t.Helper()
	events := []core.Event{
		core.WorkerRegistered{WorkerID: 1, Detour: 25, Speed: 1, MR: 0.8},
		core.WorkerReported{WorkerID: 1, X: 10, Y: 10},
		core.TaskSubmitted{TaskID: 1, X: 12, Y: 10, Deadline: 20},
		core.BatchAssigned{Offers: []core.OfferIssued{{OfferID: 1, TaskID: 1, WorkerID: 1}}},
		core.OfferAccepted{OfferID: 1},
		core.TickAdvanced{},
	}
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		b, err := core.EncodeEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestReplayNamesAnUndecodableRecord: a record the WAL frames and checksums
// correctly but that does not decode as an event fails the pass, with an
// error naming the record and its sequence number. The log starts at a
// snapshot, so the two differ: record 1 is seq 3.
func TestReplayNamesAnUndecodableRecord(t *testing.T) {
	dir := t.TempDir()
	head := []core.Event{
		core.WorkerRegistered{WorkerID: 1, Detour: 25, Speed: 1, MR: 0.8},
		core.WorkerReported{WorkerID: 1, X: 10, Y: 10},
	}
	st := core.NewState()
	log, _, err := wal.Open(dir, wal.Options{SegmentBytes: 1}) // a segment a record
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range append(head, core.TickAdvanced{}) {
		b, err := core.EncodeEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log.Append(b); err != nil {
			t.Fatal(err)
		}
		if st.Applied < uint64(len(head)) {
			if err := st.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := log.Snapshot(st.EncodeSnapshot(), st.Applied); err != nil {
		t.Fatal(err)
	}
	tick, err := core.EncodeEvent(core.TickAdvanced{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{[]byte("not an event"), tick} {
		if _, err := log.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// Reclaim the segments the snapshot covers.
	for seq := range head {
		if err := os.Remove(filepath.Join(dir, fmt.Sprintf("%020d.wal", seq))); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := wal.ReadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.StartSeq != 2 || rec.Torn != nil || len(rec.Records) != 3 {
		t.Fatalf("the log reads back from seq %d with %d records, torn %v; want seq 2, 3 records, whole", rec.StartSeq, len(rec.Records), rec.Torn)
	}

	rep, err := replay.Run(context.Background(), dir, replay.Options{Assigner: assign.KM{}})
	if err == nil {
		t.Fatalf("replay of a log with an undecodable record succeeded: %+v", rep)
	}
	var codecErr *core.CodecError
	if !errors.As(err, &codecErr) || !strings.Contains(err.Error(), "record 1 (seq 3)") {
		t.Fatalf("error %q does not name record 1 (seq 3) and wrap the codec error", err)
	}
}

// TestReplayTornTailCoversValidPrefix appends garbage to the recorded
// segment: replay must still succeed over the valid prefix and surface the
// corruption in the report instead of failing.
func TestReplayTornTailCoversValidPrefix(t *testing.T) {
	dir := t.TempDir()
	events := smallLog(t, dir)
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := replay.Run(context.Background(), dir, replay.Options{Assigner: assign.KM{}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn == nil {
		t.Error("torn tail not reported")
	}
	if rep.Events != len(events) {
		t.Errorf("replayed %d events, want %d", rep.Events, len(events))
	}
	want := core.NewState()
	for _, ev := range events {
		if err := want.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if rep.Final.Digest() != want.Digest() {
		t.Error("replayed prefix state differs from direct application")
	}
}

// TestReplayDurationGauge pins the replay-duration metric: with a stepped
// injected clock the exporter output is exact.
func TestReplayDurationGauge(t *testing.T) {
	dir := t.TempDir()
	smallLog(t, dir)

	reg := obs.NewRegistry()
	base := time.Unix(1700000000, 0)
	calls := 0
	reg.SetClock(func() time.Time {
		now := base.Add(time.Duration(calls) * 250 * time.Millisecond)
		calls++
		return now
	})
	rep, err := replay.Run(context.Background(), dir, replay.Options{Assigner: assign.KM{}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duration != 250*time.Millisecond {
		t.Errorf("duration = %v, want 250ms", rep.Duration)
	}
	dump := reg.Dump()
	for _, want := range []string{
		"# TYPE tamp_replay_duration_seconds gauge",
		`tamp_replay_duration_seconds{assigner="KM"} 0.25`,
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

// forwarded hands every batch to Assigner. The field is not embedded, so
// the inner ReadsForecast method is not promoted: replay forecasts for the
// wrapper and not for the bare assigner.
type forwarded struct{ Assigner assign.Assigner }

func (f forwarded) Name() string { return f.Assigner.Name() }
func (f forwarded) Assign(ctx context.Context, tasks []assign.Task, workers []assign.Worker, tick int) []assign.Pair {
	return f.Assigner.Assign(ctx, tasks, workers, tick)
}

// TestReplayLBComputesNoForecasts: a counterfactual pass under LB never
// consults the forecast cache, proposes what an LB that is forecast for
// proposes, and — the live run being LB too — reproduces the live plans.
func TestReplayLBComputesNoForecasts(t *testing.T) {
	dir, _ := recordLiveRun(t, assign.LB{})
	models := map[int]*predict.WorkerModel{}
	for id := 1; id <= 3; id++ {
		models[id] = &predict.WorkerModel{
			WorkerID: id,
			Model:    nn.NewSeq2Seq(predict.InputDims, 2, 6, rand.New(rand.NewSource(int64(id)))),
			Norm:     traj.Normalizer{CenterX: 50, CenterY: 25, Scale: 50},
			SeqIn:    3, SeqOut: 1,
		}
	}
	run := func(a assign.Assigner) (*replay.Report, int64) {
		reg := obs.NewRegistry()
		rep, err := replay.Run(context.Background(), dir, replay.Options{Assigner: a, Models: models, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		return rep, reg.Counter("predict_cache_hits").Value() + reg.Counter("predict_cache_misses").Value()
	}
	bare, bareLookups := run(assign.LB{})
	wrapped, wrappedLookups := run(forwarded{assign.LB{}})
	if bare.ReplayPairs == 0 {
		t.Fatal("LB replay proposed nothing; the scenario is degenerate")
	}
	if !reflect.DeepEqual(bare.Batches, wrapped.Batches) {
		t.Errorf("plans moved with the forecasts skipped:\n bare:    %+v\n wrapped: %+v", bare.Batches, wrapped.Batches)
	}
	if bare.AgreementRate() != 1 {
		t.Errorf("LB on an LB log agrees on %v of the live pairs, want all", bare.AgreementRate())
	}
	if bareLookups != 0 {
		t.Errorf("predict_cache_hits + predict_cache_misses = %d under LB, want 0", bareLookups)
	}
	if wrappedLookups == 0 {
		t.Error("the wrapper was not forecast for; the comparison is vacuous")
	}
}
