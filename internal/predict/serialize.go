package predict

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"github.com/spatialcrowd/tamp/internal/nn"
	"github.com/spatialcrowd/tamp/internal/traj"
)

// zeroRand seeds throwaway model construction; the random weights are
// immediately replaced by the loaded ones.
func zeroRand() *rand.Rand { return rand.New(rand.NewSource(0)) }

// bundleFile is the on-disk representation of a trained prediction stage:
// one entry per worker with its adapted weights and matching rate, plus the
// shared architecture and normalizer.
type bundleFile struct {
	Format string             `json:"format"`
	Arch   string             `json:"arch"`
	SeqIn  int                `json:"seqIn"`
	SeqOut int                `json:"seqOut"`
	Hidden int                `json:"hidden"`
	InDim  int                `json:"inDim"`
	OutDim int                `json:"outDim"`
	Norm   traj.Normalizer    `json:"norm"`
	Models map[int]modelEntry `json:"models"`
}

type modelEntry struct {
	MR      float64   `json:"mr"`
	Weights nn.Vector `json:"weights"`
}

const (
	bundleFormat = "tamp-predictors-v1"
	// bundleArch is the one architecture a bundle can hold. Bundles written
	// before the header carried the field leave it empty.
	bundleArch = "lstm"
	// outputDims is the (x, y) point every forecast step emits.
	outputDims = 2
	// maxBundleSeq bounds the header's window lengths: the first forecast
	// sizes its context window and step tape by them, so an unchecked value
	// turns a corrupted header into an unbounded allocation.
	maxBundleSeq = 1 << 12
)

// SaveModels serializes every worker model of the result so the offline
// stage can train once and the online platform can load predictors without
// retraining.
func (r *Result) SaveModels(w io.Writer) error {
	if len(r.Models) == 0 {
		return fmt.Errorf("predict: no models to save")
	}
	var proto *WorkerModel
	for _, m := range r.Models {
		proto = m
		break
	}
	inDim, outDim, hidden := modelDims(proto.Model)
	f := bundleFile{
		Format: bundleFormat,
		Arch:   bundleArch,
		SeqIn:  proto.SeqIn,
		SeqOut: proto.SeqOut,
		Hidden: hidden,
		InDim:  inDim,
		OutDim: outDim,
		Norm:   r.Norm,
		Models: map[int]modelEntry{},
	}
	for id, m := range r.Models {
		f.Models[id] = modelEntry{MR: m.MR, Weights: m.Model.Weights()}
	}
	return json.NewEncoder(w).Encode(&f)
}

// LoadModels reads a bundle written by SaveModels and reconstructs the
// per-worker predictors. The header is checked before anything is built
// from it: a bundle is outside input.
func LoadModels(r io.Reader) (map[int]*WorkerModel, error) {
	var f bundleFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("predict: decode bundle: %w", err)
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	out := map[int]*WorkerModel{}
	for id, e := range f.Models {
		m := nn.NewSeq2Seq(f.InDim, f.OutDim, f.Hidden, zeroRand())
		m.SetWeights(e.Weights)
		out[id] = &WorkerModel{
			WorkerID: id,
			Model:    m,
			Norm:     f.Norm,
			SeqIn:    f.SeqIn,
			SeqOut:   f.SeqOut,
			MR:       e.MR,
		}
	}
	return out, nil
}

// validate refuses a header no forecaster can be built from, naming the
// offending field.
func (f *bundleFile) validate() error {
	if f.Format != bundleFormat {
		return fmt.Errorf("predict: unsupported bundle format %q", f.Format)
	}
	if f.Arch != "" && f.Arch != bundleArch {
		return fmt.Errorf("predict: unsupported bundle arch %q (want %q)", f.Arch, bundleArch)
	}
	if f.InDim != InputDims {
		return fmt.Errorf("predict: bundle inDim %d, want %d", f.InDim, InputDims)
	}
	if f.OutDim != outputDims {
		return fmt.Errorf("predict: bundle outDim %d, want %d", f.OutDim, outputDims)
	}
	if f.Hidden <= 0 {
		return fmt.Errorf("predict: bundle hidden %d, want a positive size", f.Hidden)
	}
	if f.SeqIn <= 0 || f.SeqIn > maxBundleSeq {
		return fmt.Errorf("predict: bundle seqIn %d outside [1, %d]", f.SeqIn, maxBundleSeq)
	}
	if f.SeqOut <= 0 || f.SeqOut > maxBundleSeq {
		return fmt.Errorf("predict: bundle seqOut %d outside [1, %d]", f.SeqOut, maxBundleSeq)
	}
	for id, e := range f.Models {
		if !seq2seqHasParams(f.InDim, f.OutDim, f.Hidden, len(e.Weights)) {
			return fmt.Errorf("predict: worker %d has %d weights, not what hidden %d needs", id, len(e.Weights), f.Hidden)
		}
	}
	return nil
}

// seq2seqHasParams reports whether nn.NewSeq2Seq(inDim, outDim, hidden) has
// exactly n parameters — two LSTM cells of 4·hidden rows over [x; h; 1] and
// a linear head — without building it. Each block is compared with what is
// left of n by division, so a header with an absurd hidden size is refused
// before any product can overflow or any buffer is allocated (n is the
// length of a []float64 in memory, so 4·hidden ≤ 4·n is itself in range).
func seq2seqHasParams(inDim, outDim, hidden, n int) bool {
	if hidden > n {
		return false
	}
	for _, block := range [][2]int{
		{4 * hidden, inDim + hidden + 1},
		{4 * hidden, outDim + hidden + 1},
		{outDim, hidden + 1},
	} {
		rows, cols := block[0], block[1]
		if rows > n/cols {
			return false
		}
		n -= rows * cols
	}
	return n == 0
}

// modelDims extracts the architecture sizes of a known model type.
func modelDims(m nn.Model) (inDim, outDim, hidden int) {
	if t, ok := m.(*nn.Seq2Seq); ok {
		return t.InDim, t.OutDim, t.Hidden
	}
	return 0, 0, 0
}
