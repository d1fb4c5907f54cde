// Package ckpt defines the on-disk checkpoint format shared by training
// (marius.Session.Save/Restore) and forward-only serving (internal/serve).
// A checkpoint captures everything needed to resume training — dense
// parameters with optimizer moments, the learnable node representation
// table with its sparse-AdaGrad accumulators, the RNG seed and the epoch
// counter — plus the model-shape metadata and dataset provenance that let
// an inference loader rebuild the model without a training session and
// reject a mismatched dataset by name instead of panicking mid-forward.
//
// The format is gob with name-matched fields: version-1 checkpoints
// written before ModelMeta/DatasetUUID existed still decode (the new
// fields read back zero), and new checkpoints decode under old readers
// (unknown fields are skipped).
package ckpt

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/nn"
)

// Version guards the on-disk format.
const Version = 1

// ErrMismatch is wrapped by load-time validation errors: the checkpoint
// does not fit the session or dataset it is being loaded against. The
// message names the offending field (task, dim, layers, nodes, ...).
var ErrMismatch = errors.New("checkpoint/dataset mismatch")

// Mismatch returns a validation error wrapping ErrMismatch that names the
// offending checkpoint field.
func Mismatch(field, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrMismatch, field, fmt.Sprintf(format, args...))
}

// Model kind names recorded in ModelMeta.Kind.
const (
	KindSage     = "sage"
	KindGAT      = "gat"
	KindGCN      = "gcn"
	KindDistMult = "distmult"
)

// ModelMeta records the model shape a checkpoint's parameters were
// trained with, so a forward-only loader can rebuild the encoder/decoder
// and validate the target dataset before touching any kernel.
type ModelMeta struct {
	// Kind is one of the Kind... constants ("sage", "gat", "gcn",
	// "distmult"). Empty in checkpoints written before metadata existed.
	Kind string
	// Dim is the hidden (and, for link prediction, embedding) width.
	Dim int
	// Layers is the encoder depth (0 for decoder-only models).
	Layers int
	// Fanouts are the per-layer sampling fanouts, innermost first.
	Fanouts []int
	// Decoder is the link-prediction decoder kind ("distmult", "complex",
	// "transe"). Empty in checkpoints written before multiple decoders
	// existed, which loaders treat as "distmult" (the only kind then).
	Decoder string
	// NumRels is the relation count the decoder was built with (link
	// prediction; at least 1).
	NumRels int
	// NumClasses is the classifier output width (node classification).
	NumClasses int
	// FeatureDim is the base representation width: the feature dimension
	// for node classification, Dim for link prediction.
	FeatureDim int
}

// File is the serialized session state.
type File struct {
	Version int
	Task    string
	Epoch   int
	Seed    int64

	Params []nn.ParamState

	// TableRows/TableCols always record the store shape for validation;
	// Table/OptState carry the data only for learnable representations
	// (fixed feature tables are reproducible from the graph).
	TableRows, TableCols int
	Table                []float32
	OptState             []float32

	// Model describes how to rebuild the network from Params alone.
	Model ModelMeta
	// DatasetUUID is the manifest UUID of the dataset the session trained
	// on (empty for in-memory graphs or pre-UUID datasets); serving warns
	// when it differs from the dataset being served.
	DatasetUUID string
}

// Write saves f to path through fsys (nil means the real filesystem),
// atomically and durably (fault.AtomicWrite: write-to-temp, fsync,
// rename, fsync the directory): a crash at any point leaves either the
// previous checkpoint or the complete new one, never a truncated file.
// Routing through fsys lets crash-injection tests kill a run
// mid-checkpoint.
func Write(fsys fault.FS, path string, f *File) error {
	return fault.AtomicWrite(fsys, path, ".ckpt-*", func(w io.Writer) error {
		if err := gob.NewEncoder(w).Encode(f); err != nil {
			return fmt.Errorf("ckpt: encode checkpoint: %w", err)
		}
		return nil
	})
}

// Read loads a checkpoint from path through fsys (nil means the real
// filesystem). The whole file is read through the fault package's
// transfer loop before decoding, so short reads and transient errors are
// absorbed here rather than surfacing as a decode failure. Read performs
// no validation beyond decoding; callers check Version and their own
// shape constraints.
func Read(fsys fault.FS, path string) (*File, error) {
	f, err := fault.Or(fsys).Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, st.Size())
	if err := fault.ReadFullAt(f, buf, 0, nil); err != nil {
		return nil, fmt.Errorf("ckpt: read checkpoint: %w", err)
	}
	var cp File
	if err := gob.NewDecoder(bytes.NewReader(buf)).Decode(&cp); err != nil {
		return nil, fmt.Errorf("ckpt: decode checkpoint: %w", err)
	}
	return &cp, nil
}
