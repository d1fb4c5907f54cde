package storage_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// prepNC exports a small labeled/featured graph and ingests it, returning
// the prepared directory. External test package: internal/dataset imports
// storage, so these dataset-backed storage tests live outside it.
func prepNC(t *testing.T, parts int) string {
	t.Helper()
	g := gen.SBM(gen.SBMConfig{
		NumNodes: 300, NumClasses: 4, AvgDegree: 5, FeatureDim: 6,
		Homophily: 0.8, FeatNoise: 1, TrainFrac: 0.2, ValidFrac: 0.1, TestFrac: 0.1, Seed: 9,
	})
	exp, err := dataset.Export(g, t.TempDir(), "tsv")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if _, err := dataset.Ingest(exp.Config(out, "nc", 2, parts)); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDatasetNodeStoreRestoreAfterSnapshot exercises Snapshot → Restore
// on a DiskNodeStore opened over a dataset's feature shard (not one
// created by a training run): a snapshot round-trips exactly, a restore
// of modified data is visible through resident partitions immediately,
// and restoring the original snapshot leaves the dataset byte-identical
// (its manifest checksums still verify).
func TestDatasetNodeStoreRestoreAfterSnapshot(t *testing.T) {
	dir := prepNC(t, 4)
	ds, err := storage.OpenDataset(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := ds.NodeStore(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	if err := ns.LoadSet([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	gather := func(ids []int32) *tensor.Tensor {
		t.Helper()
		out := tensor.New(len(ids), ns.Dim())
		if err := ns.Gather(ids, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	probe := []int32{0, 1, 2}
	orig := gather(probe)

	table, state, err := ns.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if state != nil {
		t.Fatalf("non-learnable dataset store returned optimizer state (%d rows)", len(state))
	}
	if table.Rows != ds.Man.NumNodes || table.Cols != ds.Man.FeatureDim {
		t.Fatalf("snapshot shape %dx%d, want %dx%d", table.Rows, table.Cols, ds.Man.NumNodes, ds.Man.FeatureDim)
	}
	for j := 0; j < table.Cols; j++ {
		if table.Row(0)[j] != orig.Row(0)[j] {
			t.Fatal("snapshot disagrees with Gather for node 0")
		}
	}

	// Restore modified data: resident partitions must serve the new
	// values immediately (the buffer is re-read, not left stale).
	mod := table.Clone()
	for i := range mod.Data {
		mod.Data[i] += 1
	}
	if err := ns.Restore(mod, nil); err != nil {
		t.Fatal(err)
	}
	got := gather(probe)
	for i := range probe {
		for j := 0; j < ns.Dim(); j++ {
			if want := orig.Row(i)[j] + 1; got.Row(i)[j] != want {
				t.Fatalf("after restore, node %d dim %d = %v, want %v", probe[i], j, got.Row(i)[j], want)
			}
		}
	}

	// Restoring the original snapshot must leave the dataset files
	// byte-identical: the manifest checksums still verify.
	if err := ns.Restore(table, nil); err != nil {
		t.Fatal(err)
	}
	got = gather(probe)
	for i := range probe {
		for j := 0; j < ns.Dim(); j++ {
			if got.Row(i)[j] != orig.Row(i)[j] {
				t.Fatalf("restore of original snapshot did not round-trip node %d", probe[i])
			}
		}
	}
	if err := ds.Verify(); err != nil {
		t.Fatalf("dataset no longer verifies after snapshot/restore round trip: %v", err)
	}

	// Shape mismatches are rejected.
	if err := ns.Restore(tensor.New(ds.Man.NumNodes, ds.Man.FeatureDim+1), nil); err == nil {
		t.Fatal("restore of wrong-shaped table succeeded")
	}
}

// TestDatasetEdgeStoreServesBuckets checks the open-existing edge store
// against the manifest: per-bucket lengths match, and ReadBucket appends
// by value per the buffer-reuse contract.
func TestDatasetEdgeStoreServesBuckets(t *testing.T) {
	dir := prepNC(t, 4)
	ds, err := storage.OpenDataset(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	es, err := ds.EdgeStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	pt := ds.Partitioning()
	var total int64
	for i := 0; i < pt.NumPartitions; i++ {
		for j := 0; j < pt.NumPartitions; j++ {
			want := ds.Man.BucketCounts[pt.BucketID(i, j)]
			if got := es.BucketLen(i, j); int64(got) != want {
				t.Fatalf("bucket (%d,%d) length %d, manifest says %d", i, j, got, want)
			}
			bucket, err := es.ReadBucket(i, j, nil)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(bucket)) != want {
				t.Fatalf("bucket (%d,%d) read %d edges, manifest says %d", i, j, len(bucket), want)
			}
			for _, e := range bucket {
				if pt.Of(e.Src) != i || pt.Of(e.Dst) != j {
					t.Fatalf("bucket (%d,%d) holds stray edge (%d,%d)", i, j, e.Src, e.Dst)
				}
			}
			total += want
		}
	}
	if total != ds.Man.NumEdges {
		t.Fatalf("buckets hold %d edges, manifest says %d", total, ds.Man.NumEdges)
	}
}
