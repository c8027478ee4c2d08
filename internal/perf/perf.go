// Package perf is the benchmark-gated performance harness for the NN hot
// path: it runs the kernel benchmarks programmatically (testing.Benchmark),
// records ns/op and allocs/op, and persists them to a JSON file that keeps
// the first recorded run as the regression baseline. `make bench` refreshes
// the file; reviewers diff Current against Baseline.
package perf

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"github.com/spatialcrowd/tamp/internal/nn"
)

// Result is one benchmark's measured cost.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// File is the on-disk schema of BENCH_nn.json. Baseline is written once —
// the first time the file is created — and preserved by later runs, so the
// delta from the pre-workspace kernels stays visible in the repo.
type File struct {
	Note     string   `json:"note"`
	GoOS     string   `json:"goos"`
	GoArch   string   `json:"goarch"`
	Baseline []Result `json:"baseline"`
	Current  []Result `json:"current"`
}

func randSample(rng *rand.Rand, inDim, outDim, seqIn, seqOut int) nn.Sample {
	var s nn.Sample
	for i := 0; i < seqIn; i++ {
		row := make([]float64, inDim)
		for d := range row {
			row[d] = rng.NormFloat64() * 0.5
		}
		s.In = append(s.In, row)
	}
	for i := 0; i < seqOut; i++ {
		row := make([]float64, outDim)
		for d := range row {
			row[d] = rng.NormFloat64() * 0.5
		}
		s.Out = append(s.Out, row)
	}
	return s
}

// measureRounds is how many times measure re-runs each benchmark. The
// minimum over rounds is kept: scheduler and neighbor noise only ever adds
// time, so the smallest observation is the closest to the true cost and is
// far more stable run-to-run than any single observation.
const measureRounds = 5

func measure(name string, f func(b *testing.B)) Result {
	best := testing.Benchmark(f)
	bestNs := float64(best.T.Nanoseconds()) / float64(best.N)
	for i := 1; i < measureRounds; i++ {
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

// Run executes the hot-path benchmark suite: Predict and Grad, plus the
// Adam step. The workloads mirror the
// internal/nn benchmarks (hidden 16, seqIn 5, seqOut 1).
func Run() []Result {
	newSample := func() nn.Sample {
		return randSample(rand.New(rand.NewSource(1)), 4, 2, 5, 1)
	}
	lstm := nn.NewSeq2Seq(4, 2, 16, rand.New(rand.NewSource(1)))
	s := newSample()

	results := []Result{
		measure("Seq2SeqPredict", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lstm.Predict(s.In, 1)
			}
		}),
		measure("Seq2SeqGrad", func(b *testing.B) {
			grad := nn.NewVector(lstm.NumParams())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				grad.Zero()
				lstm.Grad(s.In, s.Out, nn.MSE{}, grad)
			}
		}),
		measure("AdamStep", func(b *testing.B) {
			w := nn.RandomVector(4096, 0.1, rand.New(rand.NewSource(1)))
			g := nn.RandomVector(4096, 0.1, rand.New(rand.NewSource(2)))
			opt := nn.NewAdam(0.001)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt.Step(w, g)
			}
		}),
	}
	return results
}

// WriteJSON runs the suite and writes path, preserving an existing file's
// Baseline (and Note); a fresh file records the run as both baseline and
// current.
func WriteJSON(path string) (File, error) {
	return WriteJSONWith(path, Run())
}

// WriteJSONWith is WriteJSON for an already-measured run, so one suite
// execution can feed both the regression check and the artifact file.
func WriteJSONWith(path string, cur []Result) (File, error) {
	f := File{
		Note:   "NN hot-path kernel costs; baseline is preserved across runs — compare current against it.",
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
	}
	if raw, err := os.ReadFile(path); err == nil {
		var prev File
		if err := json.Unmarshal(raw, &prev); err == nil && len(prev.Baseline) > 0 {
			f.Baseline = prev.Baseline
			if prev.Note != "" {
				f.Note = prev.Note
			}
		}
	}
	if f.Baseline == nil {
		f.Baseline = cur
	}
	f.Current = cur
	return f, writeFile(path, f)
}

// writeFile persists a bench File as indented JSON with a trailing newline,
// the format both BENCH_nn.json and BENCH_assign.json are committed in.
func writeFile(path string, f File) error {
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
