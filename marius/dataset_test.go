package marius_test

import (
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/storage"
	"repro/marius"
)

// prepLP ingests a small exported knowledge graph and returns the
// prepared directory.
func prepLP(t *testing.T, seed int64, parts int) string {
	t.Helper()
	g := gen.KG(gen.KGConfig{
		NumEntities: 400, NumRelations: 6, NumEdges: 2500, ZipfS: 1.2,
		ValidFrac: 0.03, TestFrac: 0.05, Seed: 21,
	})
	exp, err := dataset.Export(g, t.TempDir(), "tsv")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if _, err := dataset.Ingest(exp.Config(out, "lp", seed, parts)); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFromDatasetManifestDefaults(t *testing.T) {
	dir := prepLP(t, 17, 4)
	sess, err := marius.FromDataset(dir, marius.WithDim(8), marius.WithNegatives(16))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if got := sess.Task().Name(); got != marius.TaskLP {
		t.Fatalf("task from manifest = %q, want lp", got)
	}
	o := sess.Options()
	if o.Seed != 17 {
		t.Fatalf("seed defaulted to %d, want the manifest seed 17", o.Seed)
	}
	if o.Partitions != 4 {
		t.Fatalf("partitions defaulted to %d, want the manifest value 4", o.Partitions)
	}
	if g := sess.Graph(); g.NumNodes != 400 || len(g.ValidEdges) == 0 || len(g.TestEdges) == 0 {
		t.Fatalf("session graph metadata not loaded: %d nodes, %d/%d held-out edges",
			g.NumNodes, len(g.ValidEdges), len(g.TestEdges))
	}
	// The dataset session trains and evaluates without an in-memory edge
	// list.
	if _, err := sess.TrainEpoch(t.Context()); err != nil {
		t.Fatalf("train: %v", err)
	}
	if _, err := sess.Evaluate(marius.ValidSplit); err != nil {
		t.Fatalf("evaluate: %v", err)
	}
}

func TestFromDatasetOptionValidation(t *testing.T) {
	dir := prepLP(t, 1, 4)

	if _, err := marius.FromDataset(dir, marius.WithPartitions(8)); !errors.Is(err, marius.ErrDatasetMismatch) {
		t.Fatalf("partition override: got %v, want ErrDatasetMismatch", err)
	}
	if _, err := marius.FromDataset(dir,
		marius.WithDisk(t.TempDir(), marius.Capacity(16))); !errors.Is(err, marius.ErrBadBuffer) {
		t.Fatalf("capacity beyond dataset partitions: got %v, want ErrBadBuffer", err)
	}
	if _, err := marius.FromDataset(t.TempDir()); !errors.Is(err, storage.ErrNoDataset) {
		t.Fatalf("empty directory: got %v, want ErrNoDataset", err)
	}
}

// TestFromDatasetNCDisk trains node classification from a prepared
// directory with disk storage: the feature shard is paged straight off
// the dataset files, which must stay read-only (verify passes after
// training).
func TestFromDatasetNCDisk(t *testing.T) {
	g := gen.SBM(gen.SBMConfig{
		NumNodes: 400, NumClasses: 4, AvgDegree: 5, FeatureDim: 8,
		Homophily: 0.8, FeatNoise: 1, TrainFrac: 0.2, ValidFrac: 0.1, TestFrac: 0.1, Seed: 13,
	})
	exp, err := dataset.Export(g, t.TempDir(), "tsv")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := dataset.Ingest(exp.Config(dir, "nc", 5, 4)); err != nil {
		t.Fatal(err)
	}
	sess, err := marius.FromDataset(dir,
		marius.WithDisk(t.TempDir(), marius.Capacity(2)),
		marius.WithDim(8), marius.WithFanouts(4, 4), marius.WithBatchSize(64))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.TrainEpoch(t.Context()); err != nil {
		t.Fatalf("train: %v", err)
	}
	if _, err := sess.Evaluate(marius.TestSplit); err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	ds, err := storage.OpenDataset(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Verify(); err != nil {
		t.Fatalf("dataset mutated by disk training: %v", err)
	}
}
