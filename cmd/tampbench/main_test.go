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

// TestMatrixRefusesRunFlags: the matrix modes take no seed, scale or
// experiment from the experiment flags and write no CSV, so each of those
// flags, set beside -matrix or -check-matrix, is refused by name with exit
// 2 before any cell runs, rather than ignored.
func TestMatrixRefusesRunFlags(t *testing.T) {
	dir := t.TempDir()
	modes := map[string][]string{
		"matrix": {"-matrix", "-matrix-scale", "smoke",
			"-matrix-json", filepath.Join(dir, "m.json"), "-matrix-md", filepath.Join(dir, "m.md")},
		"check-matrix": {"-check-matrix", filepath.Join("..", "..", "BENCH_matrix.json"), "-matrix-scale", "smoke"},
	}
	flags := map[string][]string{
		"seed":  {"-seed", "2"},
		"seeds": {"-seeds", "3"},
		"csv":   {"-csv", filepath.Join(dir, "csv")},
		"scale": {"-scale", "full"},
		"exp":   {"-exp", "table4"},
	}
	for mode, args := range modes {
		for name, flagArgs := range flags {
			cmd := exec.Command(os.Args[0], append(append([]string{}, args...), flagArgs...)...)
			cmd.Env = append(os.Environ(), "TAMPBENCH_MAIN=1")
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("-%s -%s: %v, want exit 2\n%s", mode, name, err, out)
			}
			if !strings.Contains(string(out), "-"+name+" does not apply") {
				t.Fatalf("-%s -%s: output does not name -%s\n%s", mode, name, name, out)
			}
		}
	}
}
