package assign

import (
	"context"
	"testing"

	"github.com/spatialcrowd/tamp/internal/geo"
)

func TestGreedyFeasibleAndDisjoint(t *testing.T) {
	tasks := []Task{
		{ID: 0, Loc: geo.Pt(5, 0), Deadline: 20},
		{ID: 1, Loc: geo.Pt(6, 0), Deadline: 10},   // tighter deadline: assigned first
		{ID: 2, Loc: geo.Pt(90, 40), Deadline: 20}, // unreachable
	}
	workers := []Worker{
		{ID: 1, Loc: geo.Pt(0, 0), Detour: 8, Speed: 2, Predicted: []geo.Point{geo.Pt(4, 0), geo.Pt(5, 0)}},
		{ID: 2, Loc: geo.Pt(1, 0), Detour: 8, Speed: 2, Predicted: []geo.Point{geo.Pt(6, 0), geo.Pt(7, 0)}},
	}
	pairs := Greedy{}.Assign(context.Background(), tasks, workers, 0)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %+v, want 2", pairs)
	}
	seenW := map[int]bool{}
	seenT := map[int]bool{}
	for _, p := range pairs {
		if seenW[p.Worker] || seenT[p.Task] {
			t.Fatalf("greedy reused a task or worker: %+v", pairs)
		}
		seenW[p.Worker], seenT[p.Task] = true, true
		if p.Task == 2 {
			t.Fatalf("assigned unreachable task: %+v", pairs)
		}
	}
	// The tight-deadline task picked its nearest worker (worker index 1,
	// whose path touches (6,0)).
	for _, p := range pairs {
		if p.Task == 1 && p.Worker != 1 {
			t.Errorf("task 1 matched worker %d, want nearest worker 1", p.Worker)
		}
	}
}

func TestGreedyRespectsExclusions(t *testing.T) {
	tasks := []Task{{ID: 0, Loc: geo.Pt(3, 0), Deadline: 20, Excluded: []int{7}}}
	workers := []Worker{{ID: 7, Loc: geo.Pt(0, 0), Detour: 10, Speed: 2, Predicted: []geo.Point{geo.Pt(3, 0)}}}
	if pairs := (Greedy{}).Assign(context.Background(), tasks, workers, 0); len(pairs) != 0 {
		t.Fatalf("greedy re-offered a declined pair: %+v", pairs)
	}
}

func TestGreedyEmptyInputs(t *testing.T) {
	if pairs := (Greedy{}).Assign(context.Background(), nil, nil, 0); len(pairs) != 0 {
		t.Fatalf("pairs = %+v", pairs)
	}
}
