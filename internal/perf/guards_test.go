package perf

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestSuitesMatchCommittedRows holds each suite's specs to the Current rows
// of its committed file, name for name and in order, without measuring: a
// renamed or dropped row fails here, not after the guard has run.
func TestSuitesMatchCommittedRows(t *testing.T) {
	for _, s := range Suites {
		path := filepath.Join("..", "..", s.File())
		if got, err := SuiteFor(path); err != nil || got.Name != s.Name {
			t.Fatalf("SuiteFor(%s) = %q, %v; want %q", path, got.Name, err, s.Name)
		}
		f, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var committed, specs []string
		for _, r := range f.Current {
			committed = append(committed, r.Name)
		}
		for _, sp := range s.Specs() {
			specs = append(specs, sp.Name)
		}
		if !slices.Equal(specs, committed) {
			t.Errorf("%s: specs %q, committed rows %q", s.File(), specs, committed)
		}
	}
}

// BenchmarkGuards runs the production side of every guarded row as
// BenchmarkGuards/<suite>/<row>, from the same specs the committed files
// record.
func BenchmarkGuards(b *testing.B) {
	for _, s := range Suites {
		b.Run(s.Name, func(b *testing.B) {
			for _, sp := range s.Specs() {
				b.Run(sp.Name, func(b *testing.B) {
					b.ReportAllocs()
					sp.Run(b)
				})
			}
		})
	}
}
