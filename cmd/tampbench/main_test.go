package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test re-executes its own binary
// with TAMPBENCH_MAIN=1, so a test can check what tampbench prints and its
// exit code for a command line.
func TestMain(m *testing.M) {
	if os.Getenv("TAMPBENCH_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestModesRefuseIgnoredFlags: the matrix modes take no seed, scale or
// experiment from the experiment flags, write no CSV, and start no metrics
// registry or pprof server; the replay takes its seed (GGPSO's) but none of
// the others. So each of those flags, set beside -matrix, -check-matrix or
// -replay, is refused by name with exit 2 before anything runs, rather
// than ignored.
func TestModesRefuseIgnoredFlags(t *testing.T) {
	dir := t.TempDir()
	flags := map[string][]string{
		"seed":    {"-seed", "2"},
		"seeds":   {"-seeds", "3"},
		"csv":     {"-csv", filepath.Join(dir, "csv")},
		"scale":   {"-scale", "full"},
		"exp":     {"-exp", "table4"},
		"metrics": {"-metrics"},
		"pprof":   {"-pprof", "localhost:0"},
	}
	modes := []struct {
		name    string
		args    []string
		refuses []string
	}{
		{"matrix", []string{"-matrix", "-matrix-scale", "smoke",
			"-matrix-json", filepath.Join(dir, "m.json"), "-matrix-md", filepath.Join(dir, "m.md")},
			[]string{"seed", "seeds", "csv", "scale", "exp", "metrics", "pprof"}},
		{"check-matrix", []string{"-check-matrix", filepath.Join("..", "..", "BENCH_matrix.json"), "-matrix-scale", "smoke"},
			[]string{"seed", "seeds", "csv", "scale", "exp", "metrics", "pprof"}},
		{"replay", []string{"-replay", filepath.Join(dir, "no-such-log")},
			[]string{"seeds", "csv", "scale", "exp", "metrics", "pprof"}},
	}
	for _, mode := range modes {
		for _, name := range mode.refuses {
			cmd := exec.Command(os.Args[0], append(append([]string{}, mode.args...), flags[name]...)...)
			cmd.Env = append(os.Environ(), "TAMPBENCH_MAIN=1")
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("-%s -%s: %v, want exit 2\n%s", mode.name, name, err, out)
			}
			if !strings.Contains(string(out), "-"+name+" does not apply") {
				t.Fatalf("-%s -%s: output does not name -%s\n%s", mode.name, name, name, out)
			}
		}
	}
}
