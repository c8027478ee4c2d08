package assign

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/spatialcrowd/tamp/internal/geo"
)

// forecastScribbles are three ways to ruin Worker.Predicted without
// touching anything else a plan may read.
var forecastScribbles = []struct {
	name string
	do   func(workers []Worker, i int) []geo.Point
}{
	{"nil", func([]Worker, int) []geo.Point { return nil }},
	{"NaN", func(workers []Worker, i int) []geo.Point {
		out := make([]geo.Point, len(workers[i].Predicted)+1)
		for k := range out {
			out[k] = geo.Pt(math.NaN(), math.NaN())
		}
		return out
	}},
	{"neighbour", func(workers []Worker, i int) []geo.Point {
		return workers[(i+1)%len(workers)].Predicted
	}},
}

// TestReadsForecastMatchesBehaviour holds the declaration to what the
// assigners do, on the randomized batches of the kernel's own contract test
// (production path, so both the grid and the scan are exercised): an
// assigner that says it does not read forecasts returns the identical plan
// whatever Predicted holds, and one that says it does changes some plan
// under each scribble — so neither answer is vacuous.
func TestReadsForecastMatchesBehaviour(t *testing.T) {
	ws := NewWorkspace()
	ctx := WithWorkspace(context.Background(), ws)
	assigners := []Assigner{
		PPI{A: 0.5}, KM{}, Greedy{}, GGPSO{Population: 10, Generations: 6, Seed: 3},
		UB{}, LB{},
	}
	moved := make([][]int, len(assigners)) // [assigner][scribble] → plans changed
	for i := range moved {
		moved[i] = make([]int, len(forecastScribbles))
	}
	var onGrid, onScan int
	for seed := int64(0); seed < 60; seed++ {
		tasks, workers, tick := randInstance(rand.New(rand.NewSource(seed)), seed%2 == 0)
		if ws.newPairScan(ctx, tasks, workers, tick, 1, pairLoc).grid {
			onGrid++
		} else {
			onScan++
		}
		for si, sc := range forecastScribbles {
			scribbled := append([]Worker(nil), workers...)
			for i := range scribbled {
				scribbled[i].Predicted = sc.do(workers, i)
			}
			for ai, a := range assigners {
				want := append([]Pair(nil), Do(ctx, a, tasks, workers, tick)...)
				got := Do(ctx, a, tasks, scribbled, tick)
				switch same := plansEqual(got, want); {
				case !same && !ReadsForecast(a):
					t.Fatalf("seed %d: %s declares it reads no forecast, yet its plan moved with Predicted = %s\nbefore: %v\nafter:  %v",
						seed, a.Name(), sc.name, want, got)
				case !same:
					moved[ai][si]++
				}
			}
		}
	}
	for ai, a := range assigners {
		for si, sc := range forecastScribbles {
			if ReadsForecast(a) && moved[ai][si] == 0 {
				t.Errorf("%s declares it reads the forecast, yet no plan moved with Predicted = %s", a.Name(), sc.name)
			}
		}
	}
	if onGrid < 10 || onScan < 10 {
		t.Fatalf("instances on the grid: %d, on the scan: %d; want at least 10 of each", onGrid, onScan)
	}
}

// bareAssigner has no ReadsForecast method; forwardingAssigner holds one
// that has in a field, which promotes nothing.
type bareAssigner struct{}

func (bareAssigner) Name() string                        { return "bare" }
func (bareAssigner) Assign([]Task, []Worker, int) []Pair { return nil }

type forwardingAssigner struct{ Assigner Assigner }

func (f forwardingAssigner) Name() string { return f.Assigner.Name() }
func (f forwardingAssigner) Assign(tasks []Task, workers []Worker, tick int) []Pair {
	return f.Assigner.Assign(tasks, workers, tick)
}

// TestReadsForecastDefaultsToTrue: only the method says no. An external
// assigner without it — one forwarding to LB included — is forecast for.
func TestReadsForecastDefaultsToTrue(t *testing.T) {
	for _, tc := range []struct {
		a    Assigner
		want bool
	}{
		{LB{}, false}, {UB{}, false}, {UB{Parallelism: 4}, false},
		{PPI{}, true}, {KM{}, true}, {Greedy{}, true}, {GGPSO{}, true},
		{bareAssigner{}, true}, {forwardingAssigner{LB{}}, true}, {nil, true},
	} {
		if got := ReadsForecast(tc.a); got != tc.want {
			t.Errorf("ReadsForecast(%T) = %v, want %v", tc.a, got, tc.want)
		}
	}
}
