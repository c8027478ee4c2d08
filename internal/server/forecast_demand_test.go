package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/predict"
	"github.com/spatialcrowd/tamp/internal/traj"
)

// forwarded hands every batch to Assigner. The field is not embedded, so
// the inner ReadsForecast method is not promoted: the server forecasts for
// the wrapper and not for the bare assigner.
type forwarded struct{ Assigner assign.Assigner }

func (f forwarded) Name() string { return f.Assigner.Name() }
func (f forwarded) Assign(tasks []assign.Task, workers []assign.Worker, tick int) []assign.Pair {
	return f.Assigner.Assign(tasks, workers, tick)
}

// driveBatches runs three workers with (untrained) models through three
// batches under a and returns every offer issued with the forecast cache's
// lookup count as /metrics exports it.
func driveBatches(t *testing.T, a assign.Assigner) (offers []core.OfferIssued, lookups int64, m metricsResponse) {
	t.Helper()
	cfg := testConfig()
	cfg.Assigner = a
	cfg.Models = map[int]*predict.WorkerModel{}
	for id := 1; id <= 3; id++ {
		cfg.Models[id] = &predict.WorkerModel{
			WorkerID: id,
			Model:    nn.NewSeq2Seq(predict.InputDims, 2, 6, rand.New(rand.NewSource(int64(id)))),
			Norm:     traj.Normalizer{CenterX: 50, CenterY: 25, Scale: 50},
			SeqIn:    3, SeqOut: 1,
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	c := &client{t: t, srv: ts}
	for id := 1; id <= 3; id++ {
		c.do("POST", "/api/workers", workerRequest{ID: id, DetourKM: 8, Speed: 1, MR: 0.8}, nil)
		walkWorker(c, id, 5, float64(30*id-20), 10)
	}
	for round := 0; round < 3; round++ {
		for id := 1; id <= 3; id++ {
			c.do("POST", "/api/tasks", taskRequest{X: float64(30*id - 12 + round), Y: 11, Deadline: 30}, nil)
		}
		c.do("POST", "/api/batch", nil, nil)
		for id := 1; id <= 3; id++ {
			var got []offerResponse
			c.do("GET", fmt.Sprintf("/api/workers/%d/offers", id), nil, &got)
			for _, o := range got {
				offers = append(offers, core.OfferIssued{OfferID: o.OfferID, TaskID: o.TaskID, WorkerID: id})
				c.do("POST", fmt.Sprintf("/api/offers/%d/reject", o.OfferID), nil, nil)
			}
		}
		c.do("POST", "/api/tick", nil, nil)
	}
	c.do("GET", "/api/metrics", nil, &m)
	reg := s.Registry()
	return offers, reg.Counter("predict_cache_hits").Value() + reg.Counter("predict_cache_misses").Value(), m
}

// TestLBBatchesComputeNoForecasts: under LB the forecast cache is never
// consulted, batch after batch, and the offers are those of an LB the
// server does forecast for.
func TestLBBatchesComputeNoForecasts(t *testing.T) {
	bare, bareLookups, _ := driveBatches(t, assign.LB{})
	wrapped, wrappedLookups, _ := driveBatches(t, forwarded{assign.LB{}})
	if len(bare) == 0 {
		t.Fatal("LB made no offers; the scenario is degenerate")
	}
	if !reflect.DeepEqual(bare, wrapped) {
		t.Errorf("offers moved with the forecasts skipped:\n bare:    %+v\n wrapped: %+v", bare, wrapped)
	}
	if bareLookups != 0 {
		t.Errorf("predict_cache_hits + predict_cache_misses = %d under LB, want 0", bareLookups)
	}
	if wrappedLookups == 0 {
		t.Error("the wrapper was not forecast for; the comparison is vacuous")
	}
}

// panickingLB declares, like LB, that it reads no forecast — and dies.
type panickingLB struct{ assign.LB }

func (panickingLB) Assign([]assign.Task, []assign.Worker, int) []assign.Pair { panic("assigner bug") }
func (panickingLB) AssignContext(context.Context, []assign.Task, []assign.Worker, int) []assign.Pair {
	panic("assigner bug")
}

// TestPanickingNonReaderStillDegradesToGreedy: the Greedy fallback reads
// Worker.Predicted, which a non-reader's batch fills by stand-still — a
// valid forecast, so the degraded batch still makes its offers.
func TestPanickingNonReaderStillDegradesToGreedy(t *testing.T) {
	if assign.ReadsForecast(panickingLB{}) {
		t.Fatal("the embedded LB's declaration should be promoted")
	}
	offers, lookups, m := driveBatches(t, panickingLB{})
	if len(offers) == 0 {
		t.Fatal("degraded batches made no offers")
	}
	if m.DegradedBatches != 3 || m.Panics != 0 {
		t.Errorf("metrics = %+v; want 3 degraded batches and no middleware panic", m)
	}
	if lookups != 0 {
		t.Errorf("%d forecast lookups under a non-reader, want 0", lookups)
	}
}
