package dataset

import (
	"math"
	"testing"

	"github.com/spatialcrowd/tamp/internal/geo"
)

func smallParams(kind Kind) Params {
	p := Defaults(kind)
	p.NumWorkers = 12
	p.NewWorkers = 2
	p.TrainDays = 3
	p.TestDays = 1
	p.TicksPerDay = 60
	p.NumTestTasks = 200
	p.NumPOIs = 80
	return p
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallParams(Workload1))
	b := Generate(smallParams(Workload1))
	if len(a.Workers) != len(b.Workers) || len(a.TestTasks) != len(b.TestTasks) {
		t.Fatal("sizes differ across identical seeds")
	}
	for i := range a.Workers {
		ra, rb := a.Workers[i].TrainDays[0], b.Workers[i].TrainDays[0]
		for j := range ra.Points {
			if ra.Points[j] != rb.Points[j] {
				t.Fatalf("worker %d routine differs at %d", i, j)
			}
		}
	}
	for i := range a.TestTasks {
		ta, tb := a.TestTasks[i], b.TestTasks[i]
		if ta.ID != tb.ID || ta.Loc != tb.Loc || ta.Arrival != tb.Arrival || ta.Deadline != tb.Deadline {
			t.Fatalf("task %d differs", i)
		}
	}
}

func TestGenerateDifferentSeeds(t *testing.T) {
	p := smallParams(Workload1)
	a := Generate(p)
	p.Seed = 99
	b := Generate(p)
	same := true
	for i := range a.TestTasks {
		if a.TestTasks[i].Loc != b.TestTasks[i].Loc {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical tasks")
	}
}

func TestGenerateCounts(t *testing.T) {
	p := smallParams(Workload1)
	w := Generate(p)
	if len(w.Workers) != p.NumWorkers+p.NewWorkers {
		t.Errorf("workers = %d", len(w.Workers))
	}
	if len(w.TestTasks) != p.NumTestTasks {
		t.Errorf("tasks = %d", len(w.TestTasks))
	}
	if len(w.POIs) != p.NumPOIs {
		t.Errorf("POIs = %d", len(w.POIs))
	}
	if len(w.Hotspots) != p.NumHotspots {
		t.Errorf("hotspots = %d", len(w.Hotspots))
	}
	wantHist := (p.NumTestTasks / p.TestDays) * p.TrainDays
	if len(w.HistTasks) != wantHist {
		t.Errorf("hist tasks = %d, want %d", len(w.HistTasks), wantHist)
	}
}

func TestWorkerStructure(t *testing.T) {
	p := smallParams(Workload1)
	w := Generate(p)
	for _, wk := range w.Workers {
		if wk.New {
			if len(wk.TrainDays) != 1 {
				t.Errorf("new worker %d has %d train days, want 1", wk.ID, len(wk.TrainDays))
			}
		} else if len(wk.TrainDays) != p.TrainDays {
			t.Errorf("worker %d train days = %d", wk.ID, len(wk.TrainDays))
		}
		if len(wk.TestDays) != p.TestDays {
			t.Errorf("worker %d test days = %d", wk.ID, len(wk.TestDays))
		}
		if got := wk.TrainDays[0].Len(); got != p.TicksPerDay {
			t.Errorf("routine length = %d, want %d", got, p.TicksPerDay)
		}
		if wk.Speed <= 0 || wk.Detour <= 0 {
			t.Errorf("worker %d speed/detour = %v/%v", wk.ID, wk.Speed, wk.Detour)
		}
	}
	newCount := 0
	for _, wk := range w.Workers {
		if wk.New {
			newCount++
		}
	}
	if newCount != p.NewWorkers {
		t.Errorf("new workers = %d, want %d", newCount, p.NewWorkers)
	}
}

func TestRoutinesInsideGrid(t *testing.T) {
	for _, kind := range []Kind{Workload1, Workload2} {
		w := Generate(smallParams(kind))
		b := w.Params.Grid.Bounds()
		for _, wk := range w.Workers {
			for _, day := range wk.TrainDays {
				for _, pt := range day.Points {
					if !b.Contains(pt) {
						t.Fatalf("%v: point %v outside grid", kind, pt)
					}
				}
			}
		}
		for _, task := range w.TestTasks {
			if !b.Contains(task.Loc) {
				t.Fatalf("%v: task %v outside grid", kind, task.Loc)
			}
		}
	}
}

func TestRoutineMovementIsPhysical(t *testing.T) {
	// Per-tick displacement must stay near the archetype speed plus noise;
	// no teleporting.
	w := Generate(smallParams(Workload1))
	for _, wk := range w.Workers {
		r := wk.TrainDays[0]
		for i := 1; i < len(r.Points); i++ {
			d := r.Points[i].Dist(r.Points[i-1])
			if d > wk.Speed+2.5 {
				t.Fatalf("worker %d jumped %v cells in one tick (speed %v)", wk.ID, d, wk.Speed)
			}
		}
	}
}

func TestTasksSortedAndValid(t *testing.T) {
	p := smallParams(Workload1)
	w := Generate(p)
	horizon := p.TestDays * p.TicksPerDay
	for i, task := range w.TestTasks {
		if i > 0 && task.Arrival < w.TestTasks[i-1].Arrival {
			t.Fatal("tasks not sorted by arrival")
		}
		if task.Arrival < 0 || task.Arrival >= horizon {
			t.Errorf("task arrival %d outside horizon", task.Arrival)
		}
		valid := task.Deadline - task.Arrival
		if valid < p.ValidMin*5 || valid > p.ValidMax*5 {
			t.Errorf("task validity %d ticks outside [%d,%d]", valid, p.ValidMin*5, p.ValidMax*5)
		}
	}
}

func TestArchetypeStructureVisible(t *testing.T) {
	// Same-archetype workers should roam nearer each other than
	// cross-archetype workers on average — the property GTMC exploits.
	w := Generate(smallParams(Workload1))
	centroid := func(wk *Worker) geo.Point {
		var sx, sy float64
		pts := wk.TrainDays[0].Points
		for _, p := range pts {
			sx += p.X
			sy += p.Y
		}
		return geo.Pt(sx/float64(len(pts)), sy/float64(len(pts)))
	}
	var same, cross float64
	var ns, nc int
	for i := range w.Workers {
		for j := i + 1; j < len(w.Workers); j++ {
			d := centroid(&w.Workers[i]).Dist(centroid(&w.Workers[j]))
			if w.Workers[i].Archetype == w.Workers[j].Archetype {
				same += d
				ns++
			} else {
				cross += d
				nc++
			}
		}
	}
	if ns == 0 || nc == 0 {
		t.Skip("not enough workers")
	}
	if same/float64(ns) >= cross/float64(nc) {
		t.Errorf("same-archetype mean centroid distance %.2f >= cross %.2f",
			same/float64(ns), cross/float64(nc))
	}
}

func TestWorkload2TasksNearWorkers(t *testing.T) {
	// The paper attributes workload 2's smaller cost gaps to task and
	// worker distributions being more similar; verify tasks sit closer to
	// worker anchors under Workload2 than Workload1 (same seed).
	meanTaskToAnchor := func(kind Kind) float64 {
		w := Generate(smallParams(kind))
		var sum float64
		var n int
		for _, task := range w.TestTasks[:100] {
			best := -1.0
			for _, wk := range w.Workers {
				for _, a := range wk.Anchors {
					if d := a.Dist(task.Loc); best < 0 || d < best {
						best = d
					}
				}
			}
			sum += best
			n++
		}
		return sum / float64(n)
	}
	d1, d2 := meanTaskToAnchor(Workload1), meanTaskToAnchor(Workload2)
	if d2 >= d1 {
		t.Errorf("workload2 task-anchor distance %.2f >= workload1 %.2f", d2, d1)
	}
}

func TestNearbyPOIs(t *testing.T) {
	w := Generate(smallParams(Workload1))
	pts := w.Workers[0].TrainDays[0].Points
	near := w.NearbyPOIs(pts, 5)
	all := w.NearbyPOIs(pts, 1e9)
	if len(all) != len(w.POIs) {
		t.Errorf("infinite radius returned %d of %d POIs", len(all), len(w.POIs))
	}
	if len(near) > len(all) {
		t.Error("near > all")
	}
	for _, poi := range near {
		found := false
		for _, p := range pts {
			if poi.Loc.Dist(p) <= 5 {
				found = true
				break
			}
		}
		if !found {
			t.Error("POI outside radius returned")
		}
	}
}

func TestDensityIndexFromWorkload(t *testing.T) {
	w := Generate(smallParams(Workload1))
	d := w.DensityIndex()
	if n := d.CountWithin(geo.Pt(0, 0), math.Inf(1)); n != len(w.HistTasks) {
		t.Errorf("density total = %d, want %d", n, len(w.HistTasks))
	}
}

func TestKindString(t *testing.T) {
	if Workload1.String() == "" || Workload2.String() == "" || Kind(9).String() == "" {
		t.Error("empty kind strings")
	}
}
