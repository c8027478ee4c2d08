package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/spatialcrowd/tamp/internal/core"
	"github.com/spatialcrowd/tamp/internal/experiments"
	"github.com/spatialcrowd/tamp/internal/wal"
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

// tampbench runs the command with args and returns its output and exit
// code.
func tampbench(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TAMPBENCH_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestModesRefuseIgnoredFlags: each mode reads its own flags, so any other
// flag set beside -list, -replay, -check, -record or -exp is refused by
// name with exit 2 before anything runs, rather than ignored. A flag that
// selects a mode chosen before the one under test (-list, then -replay,
// then -check/-record) is left out of that mode's list: it changes the
// mode instead.
func TestModesRefuseIgnoredFlags(t *testing.T) {
	dir := t.TempDir()
	flags := map[string][]string{
		"list":      {"-list"},
		"exp":       {"-exp", "table4"},
		"scale":     {"-scale", "full"},
		"seed":      {"-seed", "2"},
		"csv":       {"-csv", filepath.Join(dir, "csv")},
		"seeds":     {"-seeds", "3"},
		"par":       {"-par", "2"},
		"check":     {"-check", filepath.Join(dir, "BENCH_nn.json")},
		"record":    {"-record", filepath.Join(dir, "BENCH_nn.json")},
		"check-out": {"-check-out", filepath.Join(dir, "out")},
		"tolerance": {"-tolerance", "0.5"},
		"metrics":   {"-metrics"},
		"pprof":     {"-pprof", "localhost:0"},
		"replay":    {"-replay", filepath.Join(dir, "no-such-log")},
		"assigner":  {"-assigner", "KM"},
		"models":    {"-models", filepath.Join(dir, "no-such-models")},
	}
	// The mode arguments name nothing that exists, so a flag the mode wrongly
	// accepts fails fast instead of running a suite or an experiment.
	modes := []struct {
		name    string
		args    []string
		refuses []string
	}{
		{"list", []string{"-list"},
			[]string{"exp", "scale", "seed", "csv", "seeds", "par", "check", "record", "check-out", "tolerance", "metrics", "pprof", "replay", "assigner", "models"}},
		{"replay", []string{"-replay", filepath.Join(dir, "no-such-log")},
			[]string{"exp", "scale", "csv", "seeds", "check", "record", "check-out", "tolerance", "metrics", "pprof"}},
		{"check", []string{"-check", filepath.Join(dir, "no-such-dir", "BENCH_nn.json")},
			[]string{"exp", "scale", "seed", "csv", "seeds", "par", "metrics", "assigner", "models"}},
		{"record", []string{"-record", filepath.Join(dir, "BENCH_none.json")},
			[]string{"exp", "scale", "seed", "csv", "seeds", "par", "check-out", "tolerance", "metrics", "assigner", "models"}},
		{"exp", []string{"-exp", "no-such-experiment"},
			[]string{"tolerance", "check-out", "assigner", "models"}},
	}
	for _, mode := range modes {
		for _, name := range mode.refuses {
			out, code := tampbench(t, append(append([]string{}, mode.args...), flags[name]...)...)
			if code != 2 {
				t.Fatalf("-%s -%s: exit %d, want 2\n%s", mode.name, name, code, out)
			}
			if !strings.Contains(out, "-"+name+" does not apply") {
				t.Fatalf("-%s -%s: output does not name -%s\n%s", mode.name, name, name, out)
			}
		}
	}
}

// TestReplayTakesEveryMatrixAssigner: -assigner resolves through the name
// table the experiments use, so every assigner the benchmark matrix runs
// replays a recorded log, but UB, which plans on true trajectories a log
// does not hold and is refused with that reason (exit 2) rather than
// proposing nothing; an unknown name is refused.
func TestReplayTakesEveryMatrixAssigner(t *testing.T) {
	dir := t.TempDir()
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []core.Event{
		core.WorkerRegistered{WorkerID: 1, Detour: 25, Speed: 1, MR: 0.8},
		core.WorkerReported{WorkerID: 1, X: 10, Y: 10},
		core.TaskSubmitted{TaskID: 1, X: 12, Y: 10, Deadline: 20},
		core.BatchAssigned{Offers: []core.OfferIssued{{OfferID: 1, TaskID: 1, WorkerID: 1}}},
		core.OfferAccepted{OfferID: 1},
		core.TickAdvanced{},
	} {
		b, err := core.EncodeEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range experiments.MatrixAssigners {
		out, code := tampbench(t, "-replay", dir, "-assigner", name, "-par", "2")
		if name == "UB" {
			if code != 2 || !strings.Contains(out, "no true trajectories (Worker.Actual)") {
				t.Errorf("-assigner UB: exit %d, want 2 naming the missing trajectories\n%s", code, out)
			}
			continue
		}
		if code != 0 || !strings.Contains(out, "through "+name) || !strings.Contains(out, "plan agreement: ") {
			t.Errorf("-assigner %s: exit %d\n%s", name, code, out)
		}
	}
	if out, code := tampbench(t, "-replay", dir, "-assigner", "Oracle"); code != 1 || !strings.Contains(out, `unknown assigner "Oracle"`) {
		t.Errorf("-assigner Oracle: exit %d\n%s", code, out)
	}
}
