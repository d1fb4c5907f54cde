package serve

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ckpt"
	"repro/internal/decoder"
	"repro/internal/encode"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Snapshot is one loaded checkpoint, immutable once built: the rebuilt
// model, the base-representation store, and — for link prediction — the
// precomputed encoded table every top-k query scores against. The server
// holds the current Snapshot behind an atomic pointer; Reload builds a
// new one and swaps it in, so in-flight micro-batches keep the one they
// pinned.
type Snapshot struct {
	Path     string
	LoadedAt time.Time
	File     *ckpt.File
	Meta     ckpt.ModelMeta

	Params  *nn.ParamSet
	Encoder *gnn.Encoder    // nil for decoder-only models
	Decoder decoder.Decoder // nil for NC; kind from the checkpoint metadata

	// Store is what encode gathers base representations from: the
	// context's feature store for NC, the checkpoint's embedding table
	// for LP.
	Store encode.Store

	// Table is the LP learnable embedding table from the checkpoint
	// (nil for NC).
	Table *tensor.Tensor
	// EncTable is the encoded entity table LP top-k scores tails
	// against: Table pushed through the encoder once at load (equal to
	// Table itself for decoder-only models). Nil for NC, and nil when
	// Config.QuantizeTable moved the table into EncQ.
	EncTable *tensor.Tensor
	// EncQ is the quantized encoding table when Config.QuantizeTable is
	// set: top-k scoring runs the fused dequantizing kernel against it,
	// halving (fp16) or quartering (int8) the table's resident memory
	// (for encoder models, the dominant per-snapshot allocation).
	EncQ *tensor.QTable
	// RelTable is the decoder's relation table (nil for NC).
	RelTable *tensor.Tensor
	// EncNorms caches the squared L2 norm of every EncTable/EncQ row for
	// decoders whose score needs a norm completion (TransE). Nil when the
	// decoder scores by dot product alone.
	EncNorms []float32

	// Warning is a non-fatal provenance note (checkpoint trained on a
	// different dataset UUID than the one being served).
	Warning string

	// fwd is the dispatcher's forward-only encode state. Snapshots are
	// used by one dispatcher at a time; fwd is not safe for concurrent
	// use.
	fwd *encode.Forward
	cmp *tensor.Compute
}

// encoderDims mirrors the training-side layer sizing: input dim, then
// hidden for the middle layers, then the output dim.
func encoderDims(in, hidden, out, layers int) []int {
	dims := []int{in}
	for i := 0; i < layers-1; i++ {
		dims = append(dims, hidden)
	}
	return append(dims, out)
}

// Load reads the checkpoint at path, validates it against the serving
// context's dataset — returning an error matching ckpt.ErrMismatch that
// names the offending field, instead of letting the mismatch surface as
// a kernel shape panic mid-forward — and rebuilds the forward-only
// model.
func Load(ctx *Context, path string, cfg Config) (*Snapshot, error) {
	cfg = cfg.withDefaults()
	cp, err := ckpt.Read(nil, path)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	man := ctx.DS.Man
	if cp.Version != ckpt.Version {
		return nil, ckpt.Mismatch("version", "checkpoint version %d, want %d", cp.Version, ckpt.Version)
	}
	if cp.Task != man.Task {
		return nil, ckpt.Mismatch("task", "checkpoint task %q, dataset task %q", cp.Task, man.Task)
	}
	if cp.Model.Kind == "" {
		return nil, ckpt.Mismatch("model", "checkpoint predates model metadata; re-save it with this version to serve it")
	}
	meta := cp.Model
	if cp.TableRows != man.NumNodes {
		return nil, ckpt.Mismatch("nodes", "checkpoint trained on %d nodes, dataset has %d", cp.TableRows, man.NumNodes)
	}
	if meta.Kind != ckpt.KindDistMult && len(meta.Fanouts) < meta.Layers {
		return nil, ckpt.Mismatch("fanouts", "checkpoint has %d fanouts for %d layers", len(meta.Fanouts), meta.Layers)
	}

	snap := &Snapshot{Path: path, LoadedAt: time.Now(), File: cp, Meta: meta, Params: nn.NewParamSet()}
	rng := rand.New(rand.NewSource(cp.Seed))

	switch man.Task {
	case "nc":
		if meta.FeatureDim != man.FeatureDim || cp.TableCols != man.FeatureDim {
			return nil, ckpt.Mismatch("feature_dim", "checkpoint feature dim %d, dataset feature dim %d", cp.TableCols, man.FeatureDim)
		}
		if meta.NumClasses != man.NumClasses {
			return nil, ckpt.Mismatch("classes", "checkpoint has %d classes, dataset has %d", meta.NumClasses, man.NumClasses)
		}
		dims := encoderDims(meta.FeatureDim, meta.Dim, meta.NumClasses, meta.Layers)
		if snap.Encoder, err = buildEncoder(meta.Kind, snap.Params, dims, rng); err != nil {
			return nil, err
		}
		snap.Store = ctx.Features
	case "lp":
		if cp.TableCols != meta.Dim {
			return nil, ckpt.Mismatch("dim", "checkpoint table dim %d, model dim %d", cp.TableCols, meta.Dim)
		}
		if rels := max(man.NumRels, 1); meta.NumRels != rels {
			return nil, ckpt.Mismatch("relations", "checkpoint has %d relations, dataset has %d", meta.NumRels, rels)
		}
		if cp.Table == nil {
			return nil, ckpt.Mismatch("table", "link-prediction checkpoint carries no embedding table")
		}
		if meta.Kind != ckpt.KindDistMult {
			dims := encoderDims(meta.Dim, meta.Dim, meta.Dim, meta.Layers)
			if snap.Encoder, err = buildEncoder(meta.Kind, snap.Params, dims, rng); err != nil {
				return nil, err
			}
		}
		// Decoder kind from the checkpoint metadata; checkpoints written
		// before multiple decoders existed carry no name and can only have
		// been trained with DistMult.
		decKind := meta.Decoder
		if decKind == "" {
			decKind = decoder.KindDistMult
		}
		if snap.Decoder, err = decoder.New(decKind, snap.Params, meta.NumRels, meta.Dim, rng); err != nil {
			return nil, ckpt.Mismatch("decoder", "%v", err)
		}
		snap.Table = tensor.New(cp.TableRows, cp.TableCols)
		copy(snap.Table.Data, cp.Table)
		snap.Store = encode.TensorStore{T: snap.Table}
	default:
		return nil, ckpt.Mismatch("task", "unknown task %q", man.Task)
	}

	if err := snap.Params.LoadState(cp.Params); err != nil {
		return nil, ckpt.Mismatch("params", "%v", err)
	}
	if snap.Decoder != nil {
		snap.RelTable = snap.Decoder.RelParam().Value
	}

	if cp.DatasetUUID != "" && man.UUID != "" && cp.DatasetUUID != man.UUID {
		snap.Warning = fmt.Sprintf("checkpoint %s was trained on dataset %s but is being served against %s; outputs may be meaningless", path, cp.DatasetUUID, man.UUID)
	}

	if snap.Encoder != nil {
		snap.fwd = encode.New(encode.Config{
			Encoder: snap.Encoder, Params: snap.Params,
			Fanouts: meta.Fanouts[:meta.Layers], Dirs: graph.Both,
			Workers: cfg.Workers,
		}, ctx.Adj, cfg.Seed)
	}
	snap.cmp = tensor.NewCompute(cfg.Workers, nil)

	if snap.Decoder != nil {
		if err := snap.buildEncTable(ctx, cfg, cp.Seed); err != nil {
			return nil, err
		}
		if cfg.QuantizeTable != "" {
			kind, err := tensor.ParseQuant(cfg.QuantizeTable)
			if err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
			// Quantize once per load; scoring dequantizes the same bytes
			// on every query, so results are reproducible bit-for-bit —
			// they just carry this table's storage rounding.
			snap.EncQ = tensor.Quantize(snap.EncTable, kind)
			snap.EncTable = nil
		}
		if snap.Decoder.Norms() {
			// Norm completion runs against the table scoring actually
			// sees: dequantized rows when the table is quantized, so
			// scores stay exactly 2<q,e> - |q|² - |e|² over the served
			// representations.
			if snap.EncQ != nil {
				snap.EncNorms = decoder.QTableNorms(snap.EncQ)
			} else {
				snap.EncNorms = decoder.TableNorms(snap.EncTable)
			}
		}
	}
	return snap, nil
}

// buildEncoder rebuilds a GNN encoder of the checkpointed kind with
// freshly initialized parameters (overwritten by LoadState below).
func buildEncoder(kind string, ps *nn.ParamSet, dims []int, rng *rand.Rand) (*gnn.Encoder, error) {
	switch kind {
	case ckpt.KindSage:
		return gnn.BuildSage(ps, dims, gnn.Mean, rng), nil
	case ckpt.KindGAT:
		return gnn.BuildGAT(ps, dims, rng), nil
	case ckpt.KindGCN:
		return gnn.BuildGCN(ps, dims, rng), nil
	default:
		return nil, ckpt.Mismatch("model", "unknown encoder kind %q", kind)
	}
}

// buildEncTable precomputes the encoded representation of every entity
// for LP top-k scoring: chunks of the full node range pushed through the
// encoder once at load time, so a query is a single fused gather-matmul
// over this table instead of N on-line encodes. For decoder-only models
// the encoded table is the embedding table itself.
func (s *Snapshot) buildEncTable(ctx *Context, cfg Config, seed int64) error {
	if s.Encoder == nil {
		s.EncTable = s.Table
		return nil
	}
	// encode.FullTable uses a dedicated Forward (the precompute must not
	// disturb the serving sampler's state) with per-chunk seeding, so the
	// table is a pure function of (checkpoint, adjacency, seed) — and
	// bit-identical to the table the training-side ranking evaluator
	// builds for the same state and seed.
	table, err := encode.FullTable(encode.Config{
		Encoder: s.Encoder, Params: s.Params,
		Fanouts: s.Meta.Fanouts[:s.Meta.Layers], Dirs: graph.Both,
		Workers: cfg.Workers,
	}, ctx.Adj, s.Store, ctx.NumNodes(), s.Meta.Dim, seed)
	if err != nil {
		return err
	}
	s.EncTable = table
	return nil
}
