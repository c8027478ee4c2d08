package predict

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/traj"
)

func TestSaveLoadModelsRoundTrip(t *testing.T) {
	w := tinyWorkload(dataset.Workload1)
	res, err := Train(context.Background(), w, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(res.Models) {
		t.Fatalf("loaded %d models, want %d", len(loaded), len(res.Models))
	}
	// Predictions from loaded models must match the originals exactly.
	wk := &w.Workers[0]
	recent := wk.TestDays[0].Points[:5]
	orig := res.Models[wk.ID].PredictFuture(recent, 6)
	rest := loaded[wk.ID].PredictFuture(recent, 6)
	for i := range orig {
		if orig[i] != rest[i] {
			t.Fatalf("prediction %d differs after round trip: %v vs %v", i, orig[i], rest[i])
		}
	}
	if loaded[wk.ID].MR != res.Models[wk.ID].MR {
		t.Error("MR lost in round trip")
	}
}

func TestLoadModelsRejectsGarbage(t *testing.T) {
	if _, err := LoadModels(strings.NewReader("not json")); err == nil {
		t.Error("expected decode error")
	}
	if _, err := LoadModels(strings.NewReader(`{"format":"wrong"}`)); err == nil {
		t.Error("expected format error")
	}
	bad := `{"format":"tamp-predictors-v1","seqIn":3,"seqOut":1,"hidden":4,"inDim":4,"outDim":2,` +
		`"models":{"0":{"mr":0.5,"weights":[1,2,3]}}}`
	if _, err := LoadModels(strings.NewReader(bad)); err == nil {
		t.Error("expected weight-count error")
	}
}

func TestSaveModelsEmpty(t *testing.T) {
	r := &Result{Models: map[int]*WorkerModel{}}
	var buf bytes.Buffer
	if err := r.SaveModels(&buf); err == nil {
		t.Error("expected error for empty result")
	}
}

// smallBundle is what SaveModels writes for two untrained workers: a real
// bundle, small enough to seed a fuzzer.
func smallBundle(t testing.TB) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	res := &Result{Norm: traj.Normalizer{CenterX: 10, CenterY: 10, Scale: 5}, Models: map[int]*WorkerModel{}}
	for id := 0; id < 2; id++ {
		res.Models[id] = &WorkerModel{
			WorkerID: id,
			Model:    nn.NewSeq2Seq(InputDims, outputDims, 3, rng),
			Norm:     res.Norm,
			SeqIn:    3,
			SeqOut:   1,
			MR:       0.5,
		}
	}
	var buf bytes.Buffer
	if err := res.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// badBundleHeaders are headers LoadModels used to trust: a negative size
// (makeslice panic), an architecture it cannot build (with 44 weights, what
// hidden 1 needs, "bogus" loaded as an LSTM), all-zero sizes (a
// zero-parameter model loaded without error), and sizes that allocate
// without bound or overflow the parameter count.
var badBundleHeaders = []struct{ name, bundle, names string }{
	{"negative hidden", `{"format":"tamp-predictors-v1","arch":"lstm","seqIn":3,"seqOut":1,"hidden":-3,"inDim":4,"outDim":2,` +
		`"models":{"0":{"mr":0.5,"weights":[1,2,3]}}}`, "hidden"},
	{"bogus arch", `{"format":"tamp-predictors-v1","arch":"bogus","seqIn":3,"seqOut":1,"hidden":1,"inDim":4,"outDim":2,` +
		`"models":{"0":{"mr":0.5,"weights":[` + strings.Repeat("0,", 43) + `0]}}}`, `"bogus"`},
	{"gru arch", `{"format":"tamp-predictors-v1","arch":"gru","seqIn":3,"seqOut":1,"hidden":4,"inDim":4,"outDim":2,"models":{}}`, `"gru"`},
	{"zero dims", `{"format":"tamp-predictors-v1","seqIn":3,"seqOut":1,"hidden":0,"inDim":0,"outDim":0,` +
		`"models":{"0":{"mr":0.5,"weights":[]}}}`, "inDim"},
	{"huge hidden", `{"format":"tamp-predictors-v1","seqIn":3,"seqOut":1,"hidden":1073741824,"inDim":4,"outDim":2,` +
		`"models":{"0":{"mr":0.5,"weights":[1,2,3]}}}`, "hidden"},
	{"huge seqIn", `{"format":"tamp-predictors-v1","seqIn":4611686018427387904,"seqOut":1,"hidden":4,"inDim":4,"outDim":2,"models":{}}`, "seqIn"},
}

func TestLoadModelsValidatesHeader(t *testing.T) {
	for _, tc := range badBundleHeaders {
		models, err := LoadModels(strings.NewReader(tc.bundle))
		if err == nil {
			t.Errorf("%s: loaded %d models, want an error", tc.name, len(models))
			continue
		}
		if !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.names)
		}
	}
	// A bundle from before the header carried "arch" still loads.
	saved := smallBundle(t)
	old := bytes.Replace(saved, []byte(`"arch":"lstm",`), nil, 1)
	for _, b := range [][]byte{saved, old} {
		models, err := LoadModels(bytes.NewReader(b))
		if err != nil || len(models) != 2 {
			t.Fatalf("SaveModels bundle: %d models, err %v", len(models), err)
		}
	}
}

// TestSeq2SeqHasParams pins the arithmetic count to the model it stands for.
func TestSeq2SeqHasParams(t *testing.T) {
	for hidden := 1; hidden <= 20; hidden++ {
		n := nn.NewSeq2Seq(InputDims, outputDims, hidden, zeroRand()).NumParams()
		if !seq2seqHasParams(InputDims, outputDims, hidden, n) {
			t.Errorf("hidden %d: %d parameters refused", hidden, n)
		}
		if seq2seqHasParams(InputDims, outputDims, hidden, n-1) || seq2seqHasParams(InputDims, outputDims, hidden, n+1) {
			t.Errorf("hidden %d: a count other than %d accepted", hidden, n)
		}
	}
}

// FuzzLoadModels feeds arbitrary bytes to the bundle reader: it must never
// panic, and every model it returns has as many parameters as the bundle
// gave it weights and survives a forecast.
func FuzzLoadModels(f *testing.F) {
	f.Add(smallBundle(f))
	for _, tc := range badBundleHeaders {
		f.Add([]byte(tc.bundle))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		models, err := LoadModels(bytes.NewReader(b))
		if err != nil {
			return
		}
		var raw bundleFile
		if err := json.NewDecoder(bytes.NewReader(b)).Decode(&raw); err != nil {
			t.Fatalf("loaded a bundle that does not decode: %v", err)
		}
		recent := []geo.Point{geo.Pt(9, 9), geo.Pt(10, 11)}
		for id, wm := range models {
			if got, want := wm.Model.NumParams(), len(raw.Models[id].Weights); got != want {
				t.Fatalf("worker %d: %d parameters from %d weights", id, got, want)
			}
			if got := wm.PredictFuture(recent, 2); len(got) != 2 {
				t.Fatalf("worker %d: forecast of %d points, want 2", id, len(got))
			}
		}
	})
}
