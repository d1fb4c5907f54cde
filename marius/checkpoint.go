package marius

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/decoder"
	"repro/internal/tensor"
)

// modelMeta records the session's model shape in a checkpoint, so a
// forward-only loader (marius.LoadForInference, cmd/mariusserve) can
// rebuild the network and validate its target dataset at load time
// instead of panicking deep in the forward pass.
func (s *Session) modelMeta() ckpt.ModelMeta {
	layers := s.opts.Layers
	if s.opts.Model == DistMultOnly {
		layers = 0
	}
	meta := ckpt.ModelMeta{
		Kind:       s.opts.Model.kindName(),
		Dim:        s.opts.Dim,
		Layers:     layers,
		Fanouts:    append([]int(nil), s.opts.Fanouts...),
		NumRels:    s.opts.numRels(s.graph),
		NumClasses: s.graph.NumClasses,
		FeatureDim: s.task.Source().Nodes.Dim(),
	}
	if s.task.Name() == TaskLP {
		meta.Decoder = s.opts.Decoder.kindName()
	}
	return meta
}

// Save writes the session's full training state — dense parameters with
// optimizer moments, the learnable node representation table with its
// sparse-AdaGrad accumulators, the RNG seed and the epoch counter — plus
// the model-shape metadata and (for dataset sessions) the dataset UUID to
// path, atomically (write-to-temp + rename).
func (s *Session) Save(path string) error {
	src := s.task.Source()
	cp := &ckpt.File{
		Version: ckpt.Version,
		Task:    s.task.Name(),
		Epoch:   s.task.Epoch(),
		Seed:    s.opts.Seed,
		Params:  s.task.Params().State(),

		TableRows: src.Nodes.NumNodes(), TableCols: src.Nodes.Dim(),
		Model: s.modelMeta(),
	}
	if s.opts.dataset != nil {
		cp.DatasetUUID = s.opts.dataset.Man.UUID
	}
	if s.task.LearnableTable() {
		table, state, err := src.Nodes.Snapshot()
		if err != nil {
			return err
		}
		cp.Table, cp.OptState = table.Data, state
	}
	return ckpt.Write(s.opts.FS, path, cp)
}

// restoreMismatch builds a Restore validation error that matches both
// ErrCheckpointMismatch (naming the offending field, the load-time
// contract shared with the inference loader) and the pre-existing
// ErrTaskMismatch sentinel.
func restoreMismatch(field, format string, args ...any) error {
	return fmt.Errorf("%w: %w", ErrTaskMismatch, ckpt.Mismatch(field, format, args...))
}

// Restore loads a checkpoint saved by Save into this session, reading it
// through the session's filesystem (WithFaults; the real one by
// default). The session must run the same task with the same model
// shape and seed over an identically generated graph (construction is
// deterministic given the seed, so
// rebuilding with the same generator and options reproduces the same
// layout). Shape disagreements are rejected up front with an error
// matching ErrCheckpointMismatch that names the offending field (task,
// dim, layers, nodes, ...) rather than surfacing as a kernel shape panic
// mid-forward. Training continues from the checkpointed epoch; with
// WithWorkers(1) it follows the exact trajectory the saved run would have
// taken, while the default multi-worker pipeline is nondeterministic by
// design.
func (s *Session) Restore(path string) error {
	cp, err := ckpt.Read(s.opts.FS, path)
	if err != nil {
		return fmt.Errorf("marius: %w", err)
	}
	if cp.Version != ckpt.Version {
		return restoreMismatch("version", "checkpoint version %d, want %d", cp.Version, ckpt.Version)
	}
	if cp.Task != s.task.Name() {
		return restoreMismatch("task", "checkpoint task %q, session task %q", cp.Task, s.task.Name())
	}
	if cp.Seed != s.opts.Seed {
		return restoreMismatch("seed", "checkpoint seed %d, session seed %d", cp.Seed, s.opts.Seed)
	}
	// Model-shape metadata (absent from pre-metadata checkpoints, whose
	// shapes are still caught by the table and parameter checks below).
	if cp.Model.Kind != "" {
		meta := s.modelMeta()
		if cp.Model.Kind != meta.Kind {
			return restoreMismatch("model", "checkpoint model %q, session model %q", cp.Model.Kind, meta.Kind)
		}
		if cp.Model.Dim != meta.Dim {
			return restoreMismatch("dim", "checkpoint dim %d, session dim %d", cp.Model.Dim, meta.Dim)
		}
		if cp.Model.Layers != meta.Layers {
			return restoreMismatch("layers", "checkpoint layers %d, session layers %d", cp.Model.Layers, meta.Layers)
		}
		if cp.Model.NumClasses != meta.NumClasses {
			return restoreMismatch("classes", "checkpoint classes %d, session classes %d", cp.Model.NumClasses, meta.NumClasses)
		}
		if cp.Model.NumRels != meta.NumRels {
			return restoreMismatch("relations", "checkpoint relations %d, session relations %d", cp.Model.NumRels, meta.NumRels)
		}
		// Pre-multi-decoder checkpoints carry no decoder name; DistMult
		// was the only kind they could have been trained with.
		ckDec := cp.Model.Decoder
		if ckDec == "" && s.task.Name() == TaskLP {
			ckDec = decoder.KindDistMult
		}
		if ckDec != meta.Decoder {
			return restoreMismatch("decoder", "checkpoint decoder %q, session decoder %q", ckDec, meta.Decoder)
		}
	}
	src := s.task.Source()
	if cp.TableRows != src.Nodes.NumNodes() || cp.TableCols != src.Nodes.Dim() {
		return restoreMismatch("nodes", "checkpoint table %dx%d, session store %dx%d",
			cp.TableRows, cp.TableCols, src.Nodes.NumNodes(), src.Nodes.Dim())
	}
	if s.task.LearnableTable() && cp.Table == nil {
		return restoreMismatch("table", "checkpoint carries no representation table")
	}
	if err := s.task.Params().LoadState(cp.Params); err != nil {
		return restoreMismatch("params", "%v", err)
	}
	if cp.Table != nil {
		table := tensor.New(cp.TableRows, cp.TableCols)
		copy(table.Data, cp.Table)
		if err := src.Nodes.Restore(table, cp.OptState); err != nil {
			return err
		}
	}
	s.task.SetEpoch(cp.Epoch)
	return nil
}
