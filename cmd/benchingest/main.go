// Command benchingest exercises the full ingest → train path end to end
// and emits BENCH_ingest.json, the repo's ingestion baseline: a seeded
// knowledge graph is exported to a raw TSV edge list, preprocessed by
// the streaming ingester (internal/dataset, the engine behind mariusprep
// prep) under a memory cap small enough to force a multi-run external
// sort, integrity-validated, and then trained with the pipelined COMET
// out-of-core configuration straight from the prepared directory.
//
//	make bench-ingest                 # CI: -short -check, report to /tmp
//	go run ./cmd/benchingest -check   # full size: the checked-in baseline
//
// -check enforces the ingestion contract: the external sort must spill
// (>= 2 runs) while its peak working set stays under the cap, validation
// must pass, and the pipelined dataset run's per-epoch losses and final
// checkpoint must be byte-identical to a serial session trained on the
// equivalent in-memory graph at the same seed — ingestion is exact, not
// approximate. The quantized-ingest differential rides along: an
// fp16-prepared NC dataset must train bit-identically at 1 and 4
// workers, serve identical predictions from disk-paged and in-memory
// feature stores, and land within 5% of the float32 final loss.
package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/benchkit"
	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/storage"
	"repro/marius"
)

// Report is the schema of BENCH_ingest.json.
type Report struct {
	benchkit.Header
	Config    Config  `json:"config"`
	Ingest    Ingest  `json:"ingest"`
	Reference RunStat `json:"reference_inmemory_serial"`
	Dataset   RunStat `json:"dataset_pipelined"`
	Summary   Summary `json:"summary"`
	Quant     Quant   `json:"quantized_nc"`
}

// Quant is the quantized-ingest differential: the same raw NC export
// prepared float32 and fp16, trained and served from both. Quantization
// rounds the stored features once at ingest, so the fp16 trajectory must
// be bit-identical across worker counts (like any other run) and its
// loss must land within a small tolerance of the float32 run — storage
// rounding perturbs the inputs, not the learning dynamics.
type Quant struct {
	Nodes            int       `json:"nodes"`
	FeatureDim       int       `json:"feature_dim"`
	Float32FeatureMB float64   `json:"float32_feature_mb"`
	FP16FeatureMB    float64   `json:"fp16_feature_mb"`
	LossFloat32      []float64 `json:"loss_float32"`
	LossFP16         []float64 `json:"loss_fp16"`
	// RelLossDiff is |fp16 - float32| / float32 at the final epoch.
	RelLossDiff float64 `json:"rel_loss_diff"`
	// WorkersMatch: fp16 losses and checkpoints are byte-identical at
	// workers=1 and workers=4.
	WorkersMatch bool `json:"workers_match"`
	// ServeMatch: predictions from the fp16 checkpoint are byte-identical
	// whether features are served from the paged disk store or fully
	// in-memory (both dequantize the same stored bytes).
	ServeMatch bool `json:"serve_match"`
}

// Config records the benchmark workload.
type Config struct {
	Entities   int     `json:"entities"`
	Edges      int     `json:"edges"`
	Relations  int     `json:"relations"`
	Dim        int     `json:"dim"`
	Partitions int     `json:"partitions"`
	Capacity   int     `json:"capacity"`
	Logical    int     `json:"logical_partitions"`
	BatchSize  int     `json:"batch_size"`
	Negatives  int     `json:"negatives"`
	Epochs     int     `json:"epochs"`
	Depth      int     `json:"pipeline_depth"`
	Workers    int     `json:"workers"`
	Seed       int64   `json:"seed"`
	MemCapMB   float64 `json:"mem_cap_mb"`
}

// Ingest records the preprocessing measurements.
type Ingest struct {
	Seconds          float64 `json:"seconds"`
	EdgesPerSec      float64 `json:"edges_per_sec"`
	SpillRuns        int     `json:"spill_runs"`
	PeakWorkingSetMB float64 `json:"peak_working_set_mb"`
	SpilledMB        float64 `json:"spilled_mb"`
	ValidateSeconds  float64 `json:"validate_seconds"`
}

// RunStat records one training configuration.
type RunStat struct {
	EpochSec []float64 `json:"epoch_sec"`
	Loss     []float64 `json:"loss"`
	Visits   int       `json:"visits"`
}

// Summary is what -check gates on.
type Summary struct {
	Spilled          bool `json:"external_sort_spilled"`
	UnderCap         bool `json:"peak_under_cap"`
	Validated        bool `json:"validated"`
	LossesMatch      bool `json:"losses_match_reference"`
	CheckpointsMatch bool `json:"checkpoints_match_reference"`
}

func main() {
	run := benchkit.New("ingest", "enforce gates (>=2 spill runs under the cap, exact loss and checkpoint equivalence)")
	epochs := flag.Int("epochs", 2, "training epochs per configuration")
	flag.Parse()

	cfg := Config{
		Entities: 12000, Edges: 200000, Relations: 32, Dim: 16,
		Partitions: 8, Capacity: 4, Logical: 4,
		BatchSize: 1024, Negatives: 250,
		Epochs: *epochs, Depth: 2, Workers: 4, Seed: 42,
	}
	if run.Short {
		cfg.Entities, cfg.Edges, cfg.Relations = 2500, 30000, 12
		cfg.Negatives = 64
	}
	// A cap around a fifth of the total sort working set (24 B/edge)
	// forces a genuinely multi-run external sort.
	memCap := int64(cfg.Edges) * 24 / 5
	cfg.MemCapMB = float64(memCap) / 1e6

	kg := gen.KGConfig{
		NumEntities: cfg.Entities, NumRelations: cfg.Relations, NumEdges: cfg.Edges,
		ZipfS: 1.2, ValidFrac: 0.02, TestFrac: 0.02, Seed: cfg.Seed,
	}
	rep := Report{Header: run.Header(), Config: cfg}

	work, err := os.MkdirTemp("", "benchingest-")
	benchkit.Must(err)
	defer os.RemoveAll(work)

	// Export a fresh graph to raw TSV (before any session relabels it).
	exp, err := dataset.Export(gen.KG(kg), filepath.Join(work, "raw"), "tsv")
	benchkit.Must(err)

	// Ingest under the cap — the same engine mariusprep prep drives.
	dsDir := filepath.Join(work, "prep")
	icfg := exp.Config(dsDir, "lp", cfg.Seed, cfg.Partitions)
	icfg.MemLimit = memCap
	t0 := time.Now()
	st, err := dataset.Ingest(icfg)
	benchkit.Must(err)
	rep.Ingest = Ingest{
		Seconds:          time.Since(t0).Seconds(),
		EdgesPerSec:      float64(st.NumEdges) / time.Since(t0).Seconds(),
		SpillRuns:        st.SpillRuns,
		PeakWorkingSetMB: float64(st.MaxBufferedBytes) / 1e6,
		SpilledMB:        float64(st.BytesSpilled) / 1e6,
	}
	rep.Summary.Spilled = st.SpillRuns >= 2
	rep.Summary.UnderCap = st.MaxBufferedBytes <= memCap

	t0 = time.Now()
	_, verr := dataset.Validate(dsDir)
	rep.Ingest.ValidateSeconds = time.Since(t0).Seconds()
	rep.Summary.Validated = verr == nil
	if verr != nil {
		log.Printf("validate: %v", verr)
	}

	common := []marius.Option{
		marius.WithSeed(cfg.Seed), marius.WithModel(marius.DistMultOnly),
		marius.WithDim(cfg.Dim), marius.WithBatchSize(cfg.BatchSize),
		marius.WithNegatives(cfg.Negatives), marius.WithWorkers(cfg.Workers),
	}

	// Reference: serial disk COMET training over the equivalent
	// in-memory-generated graph.
	refCkpt := filepath.Join(work, "ref.ckpt")
	benchkit.Must(os.Mkdir(filepath.Join(work, "ref"), 0o755))
	ref, err := marius.New(marius.LinkPrediction(), gen.KG(kg), append(common,
		marius.WithDisk(filepath.Join(work, "ref"),
			marius.Partitions(cfg.Partitions), marius.Capacity(cfg.Capacity),
			marius.LogicalPartitions(cfg.Logical)))...)
	benchkit.Must(err)
	rep.Reference = trainRun(ref, cfg.Epochs)
	benchkit.Must(ref.Save(refCkpt))
	benchkit.Must(ref.Close())

	// Candidate: pipelined COMET training straight from the prepared
	// directory.
	dsCkpt := filepath.Join(work, "ds.ckpt")
	benchkit.Must(os.Mkdir(filepath.Join(work, "scratch"), 0o755))
	ds, err := marius.FromDataset(dsDir, append(common,
		marius.WithDisk(filepath.Join(work, "scratch"),
			marius.Capacity(cfg.Capacity), marius.LogicalPartitions(cfg.Logical)),
		marius.WithPipeline(cfg.Depth))...)
	benchkit.Must(err)
	rep.Dataset = trainRun(ds, cfg.Epochs)
	benchkit.Must(ds.Save(dsCkpt))
	benchkit.Must(ds.Close())

	rep.Summary.LossesMatch = benchkit.SameBits(rep.Reference.Loss, rep.Dataset.Loss)
	// Compare training state, not provenance: the dataset session embeds
	// the manifest UUID in its checkpoint while the in-memory reference
	// has none, so the byte-identity contract is checked with the UUID
	// cleared (the same normalization the round-trip tests use).
	refBytes, err := ckptStateBytes(refCkpt)
	benchkit.Must(err)
	dsBytes, err := ckptStateBytes(dsCkpt)
	benchkit.Must(err)
	rep.Summary.CheckpointsMatch = bytes.Equal(refBytes, dsBytes)

	rep.Quant, err = quantDifferential(run.Short, cfg.Epochs)
	benchkit.Must(err)

	run.Write(&rep)
	fmt.Printf("ingest: %d edges in %.2fs (%.2fM edges/s), %d spill runs, peak %.2f MB under %.2f MB cap\n",
		cfg.Edges, rep.Ingest.Seconds, rep.Ingest.EdgesPerSec/1e6,
		rep.Ingest.SpillRuns, rep.Ingest.PeakWorkingSetMB, cfg.MemCapMB)
	fmt.Printf("train: reference %.2fs, dataset(pipelined) %.2fs; losses match=%v checkpoints match=%v\n",
		sum(rep.Reference.EpochSec), sum(rep.Dataset.EpochSec),
		rep.Summary.LossesMatch, rep.Summary.CheckpointsMatch)
	fmt.Printf("quantized-nc: features %.2f MB -> %.2f MB fp16; workers match=%v serve match=%v rel loss diff=%.4f\n",
		rep.Quant.Float32FeatureMB, rep.Quant.FP16FeatureMB,
		rep.Quant.WorkersMatch, rep.Quant.ServeMatch, rep.Quant.RelLossDiff)

	s := rep.Summary
	run.Gate(s.Spilled, "external sort completed in %d run(s); the cap did not force spilling", rep.Ingest.SpillRuns)
	run.Gate(s.UnderCap, "peak working set %.2f MB exceeds the %.2f MB cap", rep.Ingest.PeakWorkingSetMB, cfg.MemCapMB)
	run.Gate(s.Validated, "dataset validation failed: %v", verr)
	run.Gate(s.LossesMatch, "pipelined dataset losses diverge from the in-memory reference")
	run.Gate(s.CheckpointsMatch, "pipelined dataset checkpoint differs from the in-memory reference")
	run.Gate(rep.Quant.WorkersMatch, "fp16 dataset training diverges across worker counts")
	run.Gate(rep.Quant.ServeMatch, "fp16 predictions differ between disk-paged and in-memory feature stores")
	// Documented tolerance: fp16 storage rounding may move the final
	// loss by at most 5% relative to the float32 preparation.
	run.Gate(rep.Quant.RelLossDiff <= 0.05, "fp16 final loss strays %.2f%% from float32, tolerance 5%%", rep.Quant.RelLossDiff*100)
	run.Done()
}

// quantDifferential runs the quantized-ingest differential described on
// the Quant type.
func quantDifferential(short bool, epochs int) (Quant, error) {
	q := Quant{Nodes: 6000, FeatureDim: 32}
	if short {
		q.Nodes = 2000
	}
	g := gen.SBM(gen.SBMConfig{
		NumNodes: q.Nodes, NumClasses: 8, AvgDegree: 10, FeatureDim: q.FeatureDim,
		Homophily: 0.8, FeatNoise: 1.0,
		TrainFrac: 0.3, ValidFrac: 0.1, TestFrac: 0.1, Seed: 21,
	})
	work, err := os.MkdirTemp("", "benchingest-quant")
	if err != nil {
		return q, err
	}
	defer os.RemoveAll(work)
	exp, err := dataset.Export(g, filepath.Join(work, "raw"), "bin")
	if err != nil {
		return q, err
	}
	dirs := map[string]string{"": filepath.Join(work, "f32"), "fp16": filepath.Join(work, "fp16")}
	for mode, dir := range dirs {
		icfg := exp.Config(dir, "nc", 21, 4)
		icfg.Quantize = mode
		if _, err := dataset.Ingest(icfg); err != nil {
			return q, fmt.Errorf("quant ingest(%q): %w", mode, err)
		}
		man, err := storage.ReadManifest(dir)
		if err != nil {
			return q, err
		}
		mb := float64(man.Features.Bytes) / 1e6
		if mode == "" {
			q.Float32FeatureMB = mb
		} else {
			q.FP16FeatureMB = mb
		}
	}

	train := func(dir string, workers int) ([]float64, []byte, string, error) {
		sess, err := marius.FromDataset(dir,
			marius.WithSeed(21), marius.WithDim(16), marius.WithFanouts(6, 6),
			marius.WithBatchSize(512), marius.WithWorkers(workers))
		if err != nil {
			return nil, nil, "", err
		}
		defer sess.Close()
		var losses []float64
		for i := 0; i < epochs; i++ {
			st, err := sess.TrainEpoch(context.Background())
			if err != nil {
				return nil, nil, "", err
			}
			losses = append(losses, st.Loss)
		}
		ckpt := filepath.Join(work, fmt.Sprintf("q-w%d-%s.ckpt", workers, filepath.Base(dir)))
		if err := sess.Save(ckpt); err != nil {
			return nil, nil, "", err
		}
		raw, err := os.ReadFile(ckpt)
		return losses, raw, ckpt, err
	}

	lossF32, _, _, err := train(dirs[""], 4)
	if err != nil {
		return q, err
	}
	lossW1, ckptW1, _, err := train(dirs["fp16"], 1)
	if err != nil {
		return q, err
	}
	lossW4, ckptW4, ckptPath, err := train(dirs["fp16"], 4)
	if err != nil {
		return q, err
	}
	q.LossFloat32, q.LossFP16 = lossF32, lossW4
	q.WorkersMatch = bytes.Equal(ckptW1, ckptW4) && benchkit.SameBits(lossW1, lossW4)
	last, ref := lossW4[len(lossW4)-1], lossF32[len(lossF32)-1]
	if ref != 0 {
		d := (last - ref) / ref
		if d < 0 {
			d = -d
		}
		q.RelLossDiff = d
	}

	// Serving differential: disk-paged vs in-memory feature stores both
	// dequantize the same stored bytes, so predictions must be identical.
	nodes := make([]int32, 16)
	for i := range nodes {
		nodes[i] = int32(i * (q.Nodes / 16))
	}
	predict := func(inMem bool) (*marius.PredictResponse, error) {
		srv, err := marius.LoadForInference(dirs["fp16"], ckptPath,
			marius.ServeConfig{InMemory: inMem, Workers: 2})
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		return srv.Predict(context.Background(), &marius.PredictRequest{Nodes: nodes, Seed: 9})
	}
	pDisk, err := predict(false)
	if err != nil {
		return q, err
	}
	pMem, err := predict(true)
	if err != nil {
		return q, err
	}
	q.ServeMatch = len(pDisk.Logits) == len(pMem.Logits)
	for i := range pDisk.Logits {
		if !q.ServeMatch {
			break
		}
		for j := range pDisk.Logits[i] {
			if pDisk.Logits[i][j] != pMem.Logits[i][j] || pDisk.Classes[i] != pMem.Classes[i] {
				q.ServeMatch = false
				break
			}
		}
	}
	return q, nil
}

// ckptStateBytes serializes the checkpoint at path with its dataset
// provenance UUID cleared, for training-state byte comparison.
func ckptStateBytes(path string) ([]byte, error) {
	cp, err := ckpt.Read(nil, path)
	if err != nil {
		return nil, err
	}
	cp.DatasetUUID = ""
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// trainRun trains epochs epochs and collects exact losses.
func trainRun(sess *marius.Session, epochs int) RunStat {
	var rs RunStat
	for i := 0; i < epochs; i++ {
		t0 := time.Now()
		st, err := sess.TrainEpoch(context.Background())
		benchkit.Must(err)
		rs.EpochSec = append(rs.EpochSec, time.Since(t0).Seconds())
		rs.Loss = append(rs.Loss, st.Loss)
		rs.Visits = st.Visits
	}
	return rs
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
