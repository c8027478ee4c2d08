// Package ingest reads and writes the CSV trajectory and task files that
// cmd/tampgen dumps, and assembles loaded pieces into a TAMP workload
// (BuildWorkload).
//
// The paper evaluates on proprietary datasets (Porto taxi, Didi orders,
// Gowalla, Foursquare) that cannot be redistributed; a downstream user who
// grids and resamples their own copies into these two formats runs the
// pipeline on them.
package ingest

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"github.com/spatialcrowd/tamp/internal/assign"
	"github.com/spatialcrowd/tamp/internal/dataset"
	"github.com/spatialcrowd/tamp/internal/geo"
	"github.com/spatialcrowd/tamp/internal/traj"
)

// LoadWorkersCSV reads the worker trajectory format written by cmd/tampgen:
// a header row followed by
//
//	worker,archetype,new,split,day,tick,x,y
//
// rows (extra columns ignored). It returns one dataset.Worker per distinct
// worker id with routines grouped by (split, day) and ordered by tick.
// Speed and detour fields are left zero for the caller to fill.
func LoadWorkersCSV(r io.Reader) ([]dataset.Worker, error) {
	cr, col, err := openCSV(r, "workers", "worker", "split", "day", "tick", "x", "y")
	if err != nil {
		return nil, err
	}

	type dayKey struct {
		split string
		day   int
	}
	type rowPoint struct {
		tick int
		pt   geo.Point
	}
	days := map[int]map[dayKey][]rowPoint{}
	arch := map[int]int{}
	isNew := map[int]bool{}

	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("ingest: line %d: %w", line, err)
		}
		f := fields{rec: rec, col: col}
		id, day, tick := f.int("worker"), f.int("day"), f.int("tick")
		x, y := f.float("x"), f.float("y")
		split := f.str("split")
		if f.err != nil {
			return nil, fmt.Errorf("ingest: line %d: %w", line, f.err)
		}
		if c, ok := col["archetype"]; ok && c < len(rec) {
			if v, err := strconv.Atoi(rec[c]); err == nil {
				arch[id] = v
			}
		}
		if c, ok := col["new"]; ok && c < len(rec) {
			isNew[id] = rec[c] == "true"
		}
		if days[id] == nil {
			days[id] = map[dayKey][]rowPoint{}
		}
		k := dayKey{split: split, day: day}
		days[id][k] = append(days[id][k], rowPoint{tick: tick, pt: geo.Pt(x, y)})
	}

	var ids []int
	for id := range days {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var out []dataset.Worker
	for _, id := range ids {
		wk := dataset.Worker{ID: id, Archetype: arch[id], New: isNew[id]}
		var keys []dayKey
		for k := range days[id] {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].split != keys[j].split {
				// "train" < "test" chronologically; sort reverse-alpha.
				return keys[i].split > keys[j].split
			}
			return keys[i].day < keys[j].day
		})
		for _, k := range keys {
			pts := days[id][k]
			sort.Slice(pts, func(i, j int) bool { return pts[i].tick < pts[j].tick })
			r := traj.Routine{StartTick: 0}
			for _, rp := range pts {
				r.Points = append(r.Points, rp.pt)
			}
			if k.split == "test" {
				wk.TestDays = append(wk.TestDays, r)
			} else {
				wk.TrainDays = append(wk.TrainDays, r)
			}
		}
		out = append(out, wk)
	}
	return out, nil
}

// WriteWorkersCSV writes workers in the format LoadWorkersCSV reads: the
// header, then one row per (worker, split, day, tick) with the location to
// three decimals, each worker's train days before its test days.
func WriteWorkersCSV(w io.Writer, workers []dataset.Worker) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"worker", "archetype", "new", "split", "day", "tick", "x", "y"}); err != nil {
		return err
	}
	for _, wk := range workers {
		write := func(split string, days []traj.Routine) error {
			for d, r := range days {
				for t, pt := range r.Points {
					rec := []string{
						strconv.Itoa(wk.ID),
						strconv.Itoa(wk.Archetype),
						strconv.FormatBool(wk.New),
						split,
						strconv.Itoa(d),
						strconv.Itoa(t),
						ftoa(pt.X),
						ftoa(pt.Y),
					}
					if err := cw.Write(rec); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if err := write("train", wk.TrainDays); err != nil {
			return err
		}
		if err := write("test", wk.TestDays); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// LoadTasksCSV reads the task format written by cmd/tampgen: a header row
// followed by task,x,y,arrival,deadline rows. Tasks are returned sorted by
// arrival.
func LoadTasksCSV(r io.Reader) ([]assign.Task, error) {
	cr, col, err := openCSV(r, "tasks", "task", "x", "y", "arrival", "deadline")
	if err != nil {
		return nil, err
	}
	var out []assign.Task
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("ingest: line %d: %w", line, err)
		}
		f := fields{rec: rec, col: col}
		id, x, y := f.int("task"), f.float("x"), f.float("y")
		arr, dl := f.int("arrival"), f.int("deadline")
		if f.err != nil {
			return nil, fmt.Errorf("ingest: line %d: %w", line, f.err)
		}
		if dl < arr {
			return nil, fmt.Errorf("ingest: line %d: deadline %d before arrival %d", line, dl, arr)
		}
		out = append(out, assign.Task{ID: id, Loc: geo.Pt(x, y), Arrival: arr, Deadline: dl})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Arrival != out[j].Arrival {
			return out[i].Arrival < out[j].Arrival
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// WriteTasksCSV writes tasks in the format LoadTasksCSV reads, one row per
// task in the given order, the location to three decimals.
func WriteTasksCSV(w io.Writer, tasks []assign.Task) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"task", "x", "y", "arrival", "deadline"}); err != nil {
		return err
	}
	for _, t := range tasks {
		rec := []string{
			strconv.Itoa(t.ID),
			ftoa(t.Loc.X),
			ftoa(t.Loc.Y),
			strconv.Itoa(t.Arrival),
			strconv.Itoa(t.Deadline),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// BuildWorkload assembles a workload from externally loaded pieces. Worker
// speed defaults to the median per-tick displacement of their own routines
// when zero; detour defaults to p.DetourKM. Historical task locations (for
// the weighted loss) default to the test task locations when hist is nil.
func BuildWorkload(p dataset.Params, workers []dataset.Worker, tasks []assign.Task, hist []geo.Point, pois []geo.POI) *dataset.Workload {
	if p.Grid.Cols == 0 {
		p.Grid = geo.DefaultGrid
	}
	for i := range workers {
		if workers[i].Speed <= 0 {
			workers[i].Speed = medianSpeed(&workers[i])
		}
		if workers[i].Detour <= 0 {
			workers[i].Detour = geo.KMToCells(p.DetourKM)
		}
	}
	if hist == nil {
		for _, t := range tasks {
			hist = append(hist, t.Loc)
		}
	}
	return &dataset.Workload{
		Params:    p,
		Workers:   workers,
		POIs:      pois,
		HistTasks: hist,
		TestTasks: tasks,
	}
}

// medianSpeed estimates a worker's speed as the median per-tick step over
// all their routines; it falls back to 1 cell/tick for immobile traces.
func medianSpeed(wk *dataset.Worker) float64 {
	var steps []float64
	collect := func(rs []traj.Routine) {
		for _, r := range rs {
			for i := 1; i < len(r.Points); i++ {
				if d := r.Points[i].Dist(r.Points[i-1]); d > 1e-9 {
					steps = append(steps, d)
				}
			}
		}
	}
	collect(wk.TrainDays)
	collect(wk.TestDays)
	if len(steps) == 0 {
		return 1
	}
	sort.Float64s(steps)
	return steps[len(steps)/2]
}

// openCSV reads the header of a tampgen CSV file and maps each column name
// to its index, failing when a column in need is absent.
func openCSV(r io.Reader, file string, need ...string) (*csv.Reader, map[string]int, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: read header: %w", err)
	}
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	for _, n := range need {
		if _, ok := col[n]; !ok {
			return nil, nil, fmt.Errorf("ingest: %s CSV missing column %q", file, n)
		}
	}
	return cr, col, nil
}

// fields reads named fields of one row and keeps the first one that is
// missing or does not parse.
type fields struct {
	rec []string
	col map[string]int
	err error
}

func (f *fields) str(name string) string {
	c := f.col[name]
	if c >= len(f.rec) {
		if f.err == nil {
			f.err = fmt.Errorf("missing %s", name)
		}
		return ""
	}
	return f.rec[c]
}

func (f *fields) parse(name string, parse func(string) error) {
	if v := f.str(name); f.err == nil && parse(v) != nil {
		f.err = fmt.Errorf("bad %s %q", name, v)
	}
}

func (f *fields) int(name string) (v int) {
	f.parse(name, func(s string) (err error) { v, err = strconv.Atoi(s); return err })
	return v
}

func (f *fields) float(name string) (v float64) {
	f.parse(name, func(s string) (err error) { v, err = strconv.ParseFloat(s, 64); return err })
	return v
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
