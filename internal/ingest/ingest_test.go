package ingest

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/traj"
)

const workersCSV = `worker,archetype,new,split,day,tick,x,y
1,0,false,train,0,0,1.0,2.0
1,0,false,train,0,1,1.5,2.0
1,0,false,test,0,0,2.0,2.0
0,1,true,train,0,1,5.5,6.0
0,1,true,train,0,0,5.0,6.0
`

func TestLoadWorkersCSV(t *testing.T) {
	ws, err := LoadWorkersCSV(strings.NewReader(workersCSV))
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 {
		t.Fatalf("workers = %d", len(ws))
	}
	// Sorted by id.
	if ws[0].ID != 0 || ws[1].ID != 1 {
		t.Fatalf("order = %d,%d", ws[0].ID, ws[1].ID)
	}
	w0 := ws[0]
	if !w0.New || w0.Archetype != 1 {
		t.Errorf("worker 0 meta = new:%v arch:%d", w0.New, w0.Archetype)
	}
	// Points ordered by tick even though rows were shuffled.
	if w0.TrainDays[0].Points[0] != geo.Pt(5, 6) {
		t.Errorf("worker 0 first point = %v", w0.TrainDays[0].Points[0])
	}
	w1 := ws[1]
	if len(w1.TrainDays) != 1 || len(w1.TestDays) != 1 {
		t.Fatalf("worker 1 days = %d/%d", len(w1.TrainDays), len(w1.TestDays))
	}
	if w1.TrainDays[0].Len() != 2 || w1.TestDays[0].Len() != 1 {
		t.Errorf("worker 1 routine lengths = %d/%d", w1.TrainDays[0].Len(), w1.TestDays[0].Len())
	}
}

func TestLoadWorkersCSVErrors(t *testing.T) {
	if _, err := LoadWorkersCSV(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := LoadWorkersCSV(strings.NewReader("a,b,c\n1,2,3\n")); err == nil {
		t.Error("missing columns should fail")
	}
	bad := "worker,split,day,tick,x,y\nnope,train,0,0,1,1\n"
	if _, err := LoadWorkersCSV(strings.NewReader(bad)); err == nil {
		t.Error("bad integer should fail")
	}
	short := "worker,day,tick,x,y,split\n1,0,0,1,1\n"
	if _, err := LoadWorkersCSV(strings.NewReader(short)); err == nil {
		t.Error("row without its split field should fail")
	}
}

const tasksCSV = `task,x,y,arrival,deadline
1,3.0,4.0,10,30
0,1.0,2.0,5,25
`

func TestLoadTasksCSV(t *testing.T) {
	ts, err := LoadTasksCSV(strings.NewReader(tasksCSV))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("tasks = %d", len(ts))
	}
	if ts[0].ID != 0 || ts[1].ID != 1 {
		t.Errorf("not sorted by arrival: %v", ts)
	}
	if ts[0].Loc != geo.Pt(1, 2) || ts[0].Deadline != 25 {
		t.Errorf("task 0 = %+v", ts[0])
	}
}

func TestLoadTasksCSVErrors(t *testing.T) {
	if _, err := LoadTasksCSV(strings.NewReader("task,x,y\n1,1,1\n")); err == nil {
		t.Error("missing columns should fail")
	}
	bad := "task,x,y,arrival,deadline\n0,1,1,20,10\n"
	if _, err := LoadTasksCSV(strings.NewReader(bad)); err == nil {
		t.Error("deadline before arrival should fail")
	}
}

func TestBuildWorkloadDefaults(t *testing.T) {
	ws, err := LoadWorkersCSV(strings.NewReader(workersCSV))
	if err != nil {
		t.Fatal(err)
	}
	ts, err := LoadTasksCSV(strings.NewReader(tasksCSV))
	if err != nil {
		t.Fatal(err)
	}
	p := dataset.Defaults(dataset.Workload1)
	p.DetourKM = 4
	w := BuildWorkload(p, ws, ts, nil, nil)
	if len(w.Workers) != 2 || len(w.TestTasks) != 2 {
		t.Fatalf("workload sizes wrong")
	}
	for _, wk := range w.Workers {
		if wk.Speed <= 0 {
			t.Errorf("worker %d speed = %v", wk.ID, wk.Speed)
		}
		if wk.Detour != geo.KMToCells(4) {
			t.Errorf("worker %d detour = %v", wk.ID, wk.Detour)
		}
	}
	// Hist tasks default to test task locations.
	if len(w.HistTasks) != 2 {
		t.Errorf("hist tasks = %d", len(w.HistTasks))
	}
	// Worker 1 moved 0.5 cells/tick → median speed 0.5.
	if math.Abs(w.Workers[1].Speed-0.5) > 1e-9 {
		t.Errorf("worker 1 speed = %v", w.Workers[1].Speed)
	}
	// Immobile worker falls back to 1 cell/tick... worker 0 moved too.
	if w.Workers[0].Speed <= 0 {
		t.Error("worker 0 speed missing")
	}
}

// TestRoundTripThroughGeneratedCSV writes a generated workload with
// WriteWorkersCSV and WriteTasksCSV, reloads both files, and checks every
// worker, routine point and task field survives at the written precision.
func TestRoundTripThroughGeneratedCSV(t *testing.T) {
	p := dataset.Defaults(dataset.Workload1)
	p.NumWorkers = 4
	p.NewWorkers = 1
	p.TrainDays = 2
	p.TestDays = 1
	p.TicksPerDay = 30
	p.NumTestTasks = 40
	src := dataset.Generate(p)

	var wcsv, tcsv bytes.Buffer
	if err := WriteWorkersCSV(&wcsv, src.Workers); err != nil {
		t.Fatal(err)
	}
	if err := WriteTasksCSV(&tcsv, src.TestTasks); err != nil {
		t.Fatal(err)
	}
	ws, err := LoadWorkersCSV(&wcsv)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := LoadTasksCSV(&tcsv)
	if err != nil {
		t.Fatal(err)
	}

	// written is a coordinate as the file holds it: three decimals.
	written := func(p geo.Point) geo.Point {
		round := func(v float64) float64 {
			r, err := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 3, 64), 64)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		return geo.Pt(round(p.X), round(p.Y))
	}
	sameDays := func(id int, split string, got, want []traj.Routine) {
		if len(got) != len(want) {
			t.Fatalf("worker %d: %d %s days, want %d", id, len(got), split, len(want))
		}
		for d := range want {
			if got[d].Len() != want[d].Len() {
				t.Fatalf("worker %d %s day %d: %d points, want %d", id, split, d, got[d].Len(), want[d].Len())
			}
			for k, pt := range want[d].Points {
				if got[d].Points[k] != written(pt) {
					t.Fatalf("worker %d %s day %d tick %d: %v, want %v", id, split, d, k, got[d].Points[k], written(pt))
				}
			}
		}
	}
	if len(ws) != len(src.Workers) {
		t.Fatalf("reloaded %d workers, want %d", len(ws), len(src.Workers))
	}
	for i, want := range src.Workers {
		got := ws[i]
		if got.ID != want.ID || got.Archetype != want.Archetype || got.New != want.New {
			t.Fatalf("worker %d: id/archetype/new = %d/%d/%v, want %d/%d/%v",
				i, got.ID, got.Archetype, got.New, want.ID, want.Archetype, want.New)
		}
		sameDays(want.ID, "train", got.TrainDays, want.TrainDays)
		sameDays(want.ID, "test", got.TestDays, want.TestDays)
	}

	// The loader orders tasks by (arrival, id).
	want := append([]assign.Task(nil), src.TestTasks...)
	sort.Slice(want, func(i, j int) bool {
		if want[i].Arrival != want[j].Arrival {
			return want[i].Arrival < want[j].Arrival
		}
		return want[i].ID < want[j].ID
	})
	if len(ts) != len(want) {
		t.Fatalf("reloaded %d tasks, want %d", len(ts), len(want))
	}
	for i, w := range want {
		got := ts[i]
		if got.ID != w.ID || got.Loc != written(w.Loc) || got.Arrival != w.Arrival || got.Deadline != w.Deadline {
			t.Fatalf("task %d = id %d loc %v arrival %d deadline %d, want id %d loc %v arrival %d deadline %d",
				i, got.ID, got.Loc, got.Arrival, got.Deadline, w.ID, written(w.Loc), w.Arrival, w.Deadline)
		}
	}
}
