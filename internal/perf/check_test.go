package perf

import (
	"strings"
	"testing"
)

func baseFile() File {
	return File{Baseline: []Result{
		{Name: "Seq2SeqPredict", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "AdamStep", NsPerOp: 500, AllocsPerOp: 0},
	}}
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
		t.Fatalf("a benchmark without a baseline must not fail the check:\n%s", report)
	}
	if !strings.Contains(report, "new (no baseline)") {
		t.Fatalf("report missing new-benchmark note:\n%s", report)
	}
}

func TestCheckMissingBenchmarkFails(t *testing.T) {
	cur := []Result{
		{Name: "Seq2SeqPredict", NsPerOp: 1000, AllocsPerOp: 0},
	}
	report, ok := CheckAgainst(baseFile(), cur, 0.25)
	if ok {
		t.Fatalf("a baseline row the fresh run lacks must fail the check:\n%s", report)
	}
	if !strings.Contains(report, "AdamStep") || !strings.Contains(report, "MISSING") {
		t.Fatalf("report does not name the missing benchmark:\n%s", report)
	}
}
