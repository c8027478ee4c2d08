// Package perf is the benchmark-gated performance harness for the kernels
// the paper's pipeline leans on: the LSTM encoder–decoder behind GTTAML
// (BENCH_nn.json), PPI/KM batch matching (BENCH_assign.json) and the
// forecast engine (BENCH_predict.json). Each guarded benchmark is stated
// once, as a Spec in a Suite: Record writes a suite's committed file, Check
// compares a fresh run with its Current rows, and BenchmarkGuards runs the
// same specs under `go test -bench`. Reviewers diff Current against
// Baseline, the before-side a fresh file recorded.
package perf

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// Result is one benchmark's measured cost.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// File is the on-disk schema of the BENCH_*.json files. Baseline is written
// once — the first time the file is created — and preserved by later runs,
// so the delta from the replaced implementation stays visible in the repo.
type File struct {
	Note     string   `json:"note"`
	GoOS     string   `json:"goos"`
	GoArch   string   `json:"goarch"`
	Baseline []Result `json:"baseline"`
	Current  []Result `json:"current"`
}

// Spec is one guarded benchmark: the row name its file records, the
// production path it times and, where the file records a before-side, the
// path that production path replaced. State the closures share across calls
// (a warmed workspace or memo) is built with the spec, so every measurement
// round sees it warm. A closure panics on an error: outside a test binary,
// testing.Benchmark has no way to report b.Fatal.
type Spec struct {
	Name   string
	Run    func(b *testing.B)
	Before func(b *testing.B)
}

// Suite is one committed file, BENCH_<Name>.json: the note a fresh file
// starts with, and its specs in row order. Specs builds the benchmark state,
// so it runs only when the suite is measured or benched.
type Suite struct {
	Name  string
	Note  string
	Specs func() []Spec
}

// File is the base name of the suite's committed file.
func (s Suite) File() string { return "BENCH_" + s.Name + ".json" }

// Suites are the kernel guards.
var Suites = []Suite{nnSuite, assignSuite, predictSuite}

// SuiteFor returns the suite whose committed file has path's base name.
func SuiteFor(path string) (Suite, error) {
	for _, s := range Suites {
		if s.File() == filepath.Base(path) {
			return s, nil
		}
	}
	return Suite{}, fmt.Errorf("perf: no suite records %s", filepath.Base(path))
}

// measureRounds is how many times measure re-runs each benchmark. The
// minimum over rounds is kept: scheduler and neighbor noise only ever adds
// time, so the smallest observation is the closest to the true cost and is
// far more stable run-to-run than any single observation.
const measureRounds = 5

func measure(name string, f func(b *testing.B)) Result {
	var best testing.BenchmarkResult
	bestNs := math.Inf(1)
	for i := 0; i < measureRounds; i++ {
		r := testing.Benchmark(f)
		if ns := float64(r.T.Nanoseconds()) / float64(r.N); ns < bestNs {
			best, bestNs = r, ns
		}
	}
	return Result{
		Name:        name,
		NsPerOp:     bestNs,
		AllocsPerOp: best.AllocsPerOp(),
		BytesPerOp:  best.AllocedBytesPerOp(),
	}
}

// Record measures s and writes path. An existing file keeps its Baseline
// and Note. A fresh file measures each spec's before-side back to back with
// its production side — neighbor noise drifts over seconds on shared
// machines, so adjacent observations keep each recorded speedup honest —
// and records a spec without a before-side as both.
func Record(path string, s Suite) (File, error) {
	f := File{Note: s.Note, GoOS: runtime.GOOS, GoArch: runtime.GOARCH}
	if prev, err := LoadFile(path); err == nil && len(prev.Baseline) > 0 {
		f.Baseline = prev.Baseline
		if prev.Note != "" {
			f.Note = prev.Note
		}
	}
	fresh := f.Baseline == nil
	for _, sp := range s.Specs() {
		if fresh && sp.Before != nil {
			f.Baseline = append(f.Baseline, measure(sp.Name, sp.Before))
		}
		r := measure(sp.Name, sp.Run)
		if fresh && sp.Before == nil {
			f.Baseline = append(f.Baseline, r)
		}
		f.Current = append(f.Current, r)
	}
	return f, f.Save(path)
}

// Check measures the production side of every spec in s and compares the
// run with the Current rows of the committed file at path (CheckAgainst);
// it measures no before-side. fresh is the committed file with the run as
// its Current rows.
func Check(path string, s Suite, tolerance float64) (fresh File, report string, ok bool, err error) {
	fresh, err = LoadFile(path)
	if err != nil {
		return File{}, "", false, err
	}
	var cur []Result
	for _, sp := range s.Specs() {
		cur = append(cur, measure(sp.Name, sp.Run))
	}
	report, ok = CheckAgainst(fresh, cur, tolerance)
	fresh.Current = cur
	return fresh, report, ok, nil
}

// Save writes f as indented JSON with a trailing newline, the format the
// BENCH_*.json files are committed in.
func (f File) Save(path string) error {
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}

// Format renders the file as an aligned before/after table.
func Format(f File) string {
	base := map[string]Result{}
	for _, r := range f.Baseline {
		base[r.Name] = r
	}
	s := fmt.Sprintf("%-20s %14s %14s %12s %12s\n", "benchmark", "base ns/op", "now ns/op", "base allocs", "now allocs")
	for _, r := range f.Current {
		b, ok := base[r.Name]
		if !ok {
			b = r
		}
		s += fmt.Sprintf("%-20s %14.0f %14.0f %12d %12d\n",
			r.Name, b.NsPerOp, r.NsPerOp, b.AllocsPerOp, r.AllocsPerOp)
	}
	return s
}
