package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// LoadFile reads a BENCH_*.json written by one of the Write*JSON functions.
func LoadFile(path string) (File, error) {
	var f File
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("perf: parse %s: %w", path, err)
	}
	return f, nil
}

// CheckAgainst compares a fresh run against the file's committed Current
// rows — what the code at that commit cost. Baseline is the before-side of a
// speedup record (pre-workspace kernels, the all-pairs scan, uncached
// forecasts): a fresh run beats it by a wide margin even after a bad
// regression, so it is never the guard. A benchmark regresses when its ns/op
// exceeds committed·(1+tolerance) or its allocs/op grew at all (the
// alloc-free contract is exact, not statistical). A benchmark without a
// committed row is reported but does not fail the check, so adding a kernel
// doesn't break CI until its row lands; a committed row the fresh run did
// not produce fails it — a guard that silently stops running guards nothing.
// The report is meant for humans; ok gates the process exit code.
func CheckAgainst(f File, cur []Result, tolerance float64) (report string, ok bool) {
	base := map[string]Result{}
	for _, r := range f.Current {
		base[r.Name] = r
	}
	ok = true
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %14s %14s %8s %12s %12s  verdict\n",
		"benchmark", "base ns/op", "now ns/op", "ratio", "base allocs", "now allocs")
	for _, r := range cur {
		bl, have := base[r.Name]
		if !have {
			fmt.Fprintf(&b, "%-20s %14s %14.0f %8s %12s %12d  new (no committed row)\n",
				r.Name, "-", r.NsPerOp, "-", "-", r.AllocsPerOp)
			continue
		}
		delete(base, r.Name)
		ratio := r.NsPerOp / bl.NsPerOp
		verdict := "ok"
		if r.NsPerOp > bl.NsPerOp*(1+tolerance) {
			verdict = fmt.Sprintf("REGRESSION: ns/op +%.0f%% > +%.0f%% tolerance", (ratio-1)*100, tolerance*100)
			ok = false
		}
		if r.AllocsPerOp > bl.AllocsPerOp {
			verdict = fmt.Sprintf("REGRESSION: allocs/op %d > %d", r.AllocsPerOp, bl.AllocsPerOp)
			ok = false
		}
		fmt.Fprintf(&b, "%-20s %14.0f %14.0f %7.2fx %12d %12d  %s\n",
			r.Name, bl.NsPerOp, r.NsPerOp, ratio, bl.AllocsPerOp, r.AllocsPerOp, verdict)
	}
	for _, r := range f.Current {
		if _, missing := base[r.Name]; missing {
			fmt.Fprintf(&b, "%-20s  MISSING: committed but not run\n", r.Name)
			ok = false
		}
	}
	return b.String(), ok
}
