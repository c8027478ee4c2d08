package meta

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/spatialcrowd/tamp/internal/ckpt"
	"github.com/spatialcrowd/tamp/internal/nn"
)

// CheckpointConfig enables periodic training checkpoints inside MetaTrain.
// A checkpoint snapshots everything a resumed run needs to be bit-identical
// to an uninterrupted one: the initialization vector θ, the loss
// accumulators, and the exact RNG stream position (seed + draw count) of the
// sampling source. Snapshots are written atomically (temp file + rename) so
// a crash mid-write never corrupts the previous one.
//
// One meta-training run is made of many MetaTrain segments (one per tree
// node, plus warm-up passes); each segment checkpoints under its own scope
// file in Dir. Resume is re-execution with memoization: the pipeline re-runs
// from the start, completed segments fast-forward from their final snapshot
// (restoring θ, loss, and the RNG position in O(draws) replay instead of
// recomputing gradients), and the interrupted segment continues from its
// last iteration boundary.
type CheckpointConfig struct {
	// Dir receives one <scope>.ckpt.json file per training segment.
	Dir string
	// Every is the snapshot interval in meta-iterations (default 10). A
	// final snapshot is always written when a segment completes.
	Every int
	// Source must be the restorable source backing Config.Rng; without it
	// the RNG position cannot be captured and checkpointing is disabled.
	Source *ckpt.Source
	// OnCheckpoint, when set, runs after each successful snapshot — used
	// for progress reporting and by tests to interrupt training at an exact
	// checkpoint boundary.
	OnCheckpoint func(scope string, iter int)
	// OnError, when set, observes snapshot write failures. Failures never
	// abort training: a run with a broken checkpoint dir still produces
	// correct results, it just loses resumability.
	OnError func(scope string, err error)
	// Scope names the current training segment; TAML manages it, callers
	// invoking MetaTrain directly may leave it empty (it defaults to
	// "root").
	Scope string
}

// checkpointFile is the on-disk snapshot, following the repo's existing
// JSON serializer conventions (format tag + flat weight vector).
type checkpointFile struct {
	Format    string    `json:"format"`
	Scope     string    `json:"scope"`
	Iter      int       `json:"iter"`
	Theta     nn.Vector `json:"theta"`
	RngSeed   int64     `json:"rngSeed"`
	RngDraws  uint64    `json:"rngDraws"`
	LossSum   float64   `json:"lossSum"`
	LossCount int       `json:"lossCount"`
}

const checkpointFormat = "tamp-metackpt-v1"

func (c *CheckpointConfig) enabled() bool {
	return c != nil && c.Dir != "" && c.Source != nil
}

func (c *CheckpointConfig) interval() int {
	if c.Every > 0 {
		return c.Every
	}
	return 10
}

func (c *CheckpointConfig) scopeOrRoot() string {
	if c.Scope != "" {
		return c.Scope
	}
	return "root"
}

// path maps the scope to its snapshot file, flattening the hierarchy
// separator so every scope lives directly under Dir.
func (c *CheckpointConfig) path() string {
	name := strings.ReplaceAll(c.scopeOrRoot(), "/", "_")
	return filepath.Join(c.Dir, name+".ckpt.json")
}

// save snapshots one iteration boundary. Errors are reported to OnError and
// otherwise swallowed: checkpointing degrades, training does not.
func (c *CheckpointConfig) save(iter int, theta nn.Vector, lossSum float64, lossCount int) {
	seed, draws := c.Source.State()
	f := checkpointFile{
		Format:    checkpointFormat,
		Scope:     c.scopeOrRoot(),
		Iter:      iter,
		Theta:     theta,
		RngSeed:   seed,
		RngDraws:  draws,
		LossSum:   lossSum,
		LossCount: lossCount,
	}
	err := ckpt.WriteFileAtomic(c.path(), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(&f)
	})
	if err != nil {
		if c.OnError != nil {
			c.OnError(c.scopeOrRoot(), err)
		}
		return
	}
	if c.OnCheckpoint != nil {
		c.OnCheckpoint(c.scopeOrRoot(), iter)
	}
}

// load returns the segment's snapshot when one exists and is compatible
// with the current run (same format, scope, seed stream, and θ length);
// anything else — missing file, torn metadata, a checkpoint from a
// different seed — yields nil and the segment trains from scratch.
func (c *CheckpointConfig) load(thetaLen, maxIter int) *checkpointFile {
	r, err := os.Open(c.path())
	if err != nil {
		return nil
	}
	defer r.Close()
	var f checkpointFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		if c.OnError != nil {
			c.OnError(c.scopeOrRoot(), fmt.Errorf("meta: decode checkpoint: %w", err))
		}
		return nil
	}
	seed, _ := c.Source.State()
	if f.Format != checkpointFormat || f.Scope != c.scopeOrRoot() ||
		f.RngSeed != seed || len(f.Theta) != thetaLen ||
		f.Iter <= 0 || f.Iter > maxIter {
		return nil
	}
	return &f
}

// withCkptScope returns cfg with its checkpoint config re-scoped; a nil
// checkpoint passes through untouched.
func (cfg Config) withCkptScope(scope string) Config {
	if cfg.Checkpoint == nil {
		return cfg
	}
	ck := *cfg.Checkpoint
	ck.Scope = scope
	cfg.Checkpoint = &ck
	return cfg
}
