package perf

import (
	"strings"
	"testing"
)

// baseFile has the shape of the committed BENCH_*.json files: a loose
// Baseline (the replaced implementation) and a tight Current. Every verdict
// below is against Current; checked against Baseline, the regressions in
// TestCheckTimeRegressionFails and
// TestCheckAllocRegressionFailsRegardlessOfTolerance would pass.
func baseFile() File {
	return File{
		Baseline: []Result{
			{Name: "Seq2SeqPredict", NsPerOp: 2000, AllocsPerOp: 54},
			{Name: "AdamStep", NsPerOp: 1000, AllocsPerOp: 0},
			{Name: "RetiredKernel", NsPerOp: 700, AllocsPerOp: 3},
		},
		Current: []Result{
			{Name: "Seq2SeqPredict", NsPerOp: 1000, AllocsPerOp: 0},
			{Name: "AdamStep", NsPerOp: 500, AllocsPerOp: 0},
		},
	}
}

func TestCheckWithinTolerancePasses(t *testing.T) {
	cur := []Result{
		{Name: "Seq2SeqPredict", NsPerOp: 1200, AllocsPerOp: 0}, // +20% < 25%
		{Name: "AdamStep", NsPerOp: 400, AllocsPerOp: 0},
	}
	report, ok := CheckAgainst(baseFile(), cur, 0.25)
	if !ok {
		t.Fatalf("expected pass, got failure:\n%s", report)
	}
}

func TestCheckTimeRegressionFails(t *testing.T) {
	cur := []Result{
		{Name: "Seq2SeqPredict", NsPerOp: 1300, AllocsPerOp: 0}, // +30% > 25%
		{Name: "AdamStep", NsPerOp: 500, AllocsPerOp: 0},
	}
	report, ok := CheckAgainst(baseFile(), cur, 0.25)
	if ok {
		t.Fatal("expected time regression to fail the check")
	}
	if !strings.Contains(report, "REGRESSION: ns/op") {
		t.Fatalf("report missing ns/op verdict:\n%s", report)
	}
}

func TestCheckAllocRegressionFailsRegardlessOfTolerance(t *testing.T) {
	cur := []Result{
		{Name: "Seq2SeqPredict", NsPerOp: 900, AllocsPerOp: 1},
		{Name: "AdamStep", NsPerOp: 500, AllocsPerOp: 0},
	}
	report, ok := CheckAgainst(baseFile(), cur, 10)
	if ok {
		t.Fatal("expected alloc regression to fail the check")
	}
	if !strings.Contains(report, "REGRESSION: allocs/op 1 > 0") {
		t.Fatalf("report missing allocs verdict:\n%s", report)
	}
}

func TestCheckNewBenchmarkDoesNotFail(t *testing.T) {
	cur := []Result{
		{Name: "Seq2SeqPredict", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "AdamStep", NsPerOp: 500, AllocsPerOp: 0},
		{Name: "BrandNewKernel", NsPerOp: 9999, AllocsPerOp: 7},
	}
	report, ok := CheckAgainst(baseFile(), cur, 0.25)
	if !ok {
		t.Fatalf("a benchmark without a committed row must not fail the check:\n%s", report)
	}
	if !strings.Contains(report, "new (no committed row)") {
		t.Fatalf("report missing new-benchmark note:\n%s", report)
	}
}

func TestCheckMissingBenchmarkFails(t *testing.T) {
	cur := []Result{
		{Name: "Seq2SeqPredict", NsPerOp: 1000, AllocsPerOp: 0},
	}
	report, ok := CheckAgainst(baseFile(), cur, 0.25)
	if ok {
		t.Fatalf("a committed row the fresh run lacks must fail the check:\n%s", report)
	}
	if !strings.Contains(report, "AdamStep") || !strings.Contains(report, "MISSING") {
		t.Fatalf("report does not name the missing benchmark:\n%s", report)
	}
}

// A row that exists only in Baseline (a kernel since retired) is neither
// guarded nor reported missing.
func TestCheckBaselineOnlyRowIsIgnored(t *testing.T) {
	cur := []Result{
		{Name: "Seq2SeqPredict", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "AdamStep", NsPerOp: 500, AllocsPerOp: 0},
	}
	report, ok := CheckAgainst(baseFile(), cur, 0.25)
	if !ok || strings.Contains(report, "RetiredKernel") {
		t.Fatalf("a baseline-only row must not take part in the check:\n%s", report)
	}
}
