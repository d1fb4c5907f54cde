package dataset_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/marius"
)

// ingestQuant exports the NC fixture once and ingests it with the given
// feature encoding ("" = float32), returning the prepared directory.
func ingestQuant(t *testing.T, quantize string) string {
	t.Helper()
	exp, err := dataset.Export(gen.SBM(smallSBM()), t.TempDir(), "tsv")
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	out := t.TempDir()
	cfg := exp.Config(out, "nc", 7, 4)
	cfg.Quantize = quantize
	if _, err := dataset.Ingest(cfg); err != nil {
		t.Fatalf("ingest(%q): %v", quantize, err)
	}
	return out
}

// TestQuantRoundTrip is the storage-fidelity contract for quantized
// ingest: the bytes on disk must be exactly what tensor.Quantize produces
// from the float32 table, and every read path — full load, compressed
// load, partition-paged disk store — must dequantize to the same float32
// values bit-for-bit (quantization rounds once at ingest; reads never
// re-round).
func TestQuantRoundTrip(t *testing.T) {
	f32Dir := ingestQuant(t, "")
	f32DS, err := storage.OpenDataset(nil, f32Dir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := f32DS.ReadFeatures()
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []string{"fp16", "int8"} {
		t.Run(mode, func(t *testing.T) {
			kind, err := tensor.ParseQuant(mode)
			if err != nil {
				t.Fatal(err)
			}
			dir := ingestQuant(t, mode)
			if _, err := dataset.Validate(dir); err != nil {
				t.Fatalf("validate: %v", err)
			}
			ds, err := storage.OpenDataset(nil, dir)
			if err != nil {
				t.Fatal(err)
			}
			if ds.Man.Version != storage.DatasetVersion {
				t.Errorf("quantized manifest version = %d, want %d", ds.Man.Version, storage.DatasetVersion)
			}
			if ds.Man.QuantKind() != kind {
				t.Errorf("manifest quant = %q, want %q", ds.Man.Quant, mode)
			}

			// On-disk bytes are exactly the in-memory quantizer's output.
			want := tensor.Quantize(ref, kind)
			q, err := ds.ReadQuantFeatures()
			if err != nil {
				t.Fatalf("ReadQuantFeatures: %v", err)
			}
			if !bytes.Equal(q.Raw, want.Raw) {
				t.Fatal("quantized feature bytes differ from tensor.Quantize of the float32 table")
			}
			for i := range want.Scale {
				if q.Scale[i] != want.Scale[i] || q.Zero[i] != want.Zero[i] {
					t.Fatalf("row %d sidecar (scale,zero) = (%v,%v), want (%v,%v)",
						i, q.Scale[i], q.Zero[i], want.Scale[i], want.Zero[i])
				}
			}

			// Full in-memory load dequantizes to the reference exactly.
			wantF32 := tensor.RefDequant(want)
			got, err := ds.ReadFeatures()
			if err != nil {
				t.Fatal(err)
			}
			if got.Rows != wantF32.Rows || got.Cols != wantF32.Cols {
				t.Fatalf("ReadFeatures shape %dx%d, want %dx%d", got.Rows, got.Cols, wantF32.Rows, wantF32.Cols)
			}
			for i := range wantF32.Data {
				if got.Data[i] != wantF32.Data[i] {
					t.Fatalf("ReadFeatures[%d] = %v, want %v", i, got.Data[i], wantF32.Data[i])
				}
			}

			// The partition-paged disk store dequantizes on load to the
			// same values.
			ns, err := ds.NodeStore(2, nil)
			if err != nil {
				t.Fatalf("NodeStore: %v", err)
			}
			defer ns.Close()
			all, err := ns.ReadAll()
			if err != nil {
				t.Fatalf("ReadAll: %v", err)
			}
			for i := range wantF32.Data {
				if all.Data[i] != wantF32.Data[i] {
					t.Fatalf("disk store ReadAll[%d] = %v, want %v", i, all.Data[i], wantF32.Data[i])
				}
			}

			// Gather through loaded partitions matches RefGatherDequant.
			if err := ns.LoadSet([]int{0, 1}); err != nil {
				t.Fatalf("LoadSet: %v", err)
			}
			pt := ds.Partitioning()
			lo0, _ := pt.Range(0)
			lo1, hi1 := pt.Range(1)
			ids := []int32{lo0, lo1, hi1 - 1, lo0 + 1}
			out := tensor.New(len(ids), ds.Man.FeatureDim)
			if err := ns.Gather(ids, out); err != nil {
				t.Fatalf("Gather: %v", err)
			}
			wantG := tensor.RefGatherDequant(want, ids)
			for i := range wantG.Data {
				if out.Data[i] != wantG.Data[i] {
					t.Fatalf("Gather[%d] = %v, want RefGatherDequant %v", i, out.Data[i], wantG.Data[i])
				}
			}

			// The quantized store is read-only.
			if err := ns.Restore(wantF32, nil); err == nil {
				t.Fatal("Restore into a quantized store succeeded, want error")
			}
		})
	}
}

// TestQuantIngestDeterministic re-ingests the same export with the same
// encoding and demands identical manifests (UUID, CRCs): quantization is
// part of the dataset's identity, not a per-run transformation.
func TestQuantIngestDeterministic(t *testing.T) {
	a := ingestQuant(t, "fp16")
	b := ingestQuant(t, "fp16")
	ma, err := storage.ReadManifest(a)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := storage.ReadManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	if ma.UUID != mb.UUID {
		t.Errorf("UUIDs differ across identical ingests: %s vs %s", ma.UUID, mb.UUID)
	}
	if ma.Features.CRC32 != mb.Features.CRC32 {
		t.Errorf("feature CRCs differ across identical ingests")
	}
	fa, _ := os.ReadFile(filepath.Join(a, ma.Features.Name))
	fb, _ := os.ReadFile(filepath.Join(b, mb.Features.Name))
	if !bytes.Equal(fa, fb) {
		t.Error("quantized feature bytes differ across identical ingests")
	}

	// A quantized dataset must not collide with the float32 dataset's
	// identity: the UUID folds in the encoding.
	f32, err := storage.ReadManifest(ingestQuant(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	if f32.UUID == ma.UUID {
		t.Error("fp16 and float32 datasets share a UUID")
	}
	if f32.Version != storage.DatasetVersionPlain {
		t.Errorf("unquantized manifest version = %d, want %d (plain datasets stay readable by old builds)",
			f32.Version, storage.DatasetVersionPlain)
	}
}

// TestQuantTrainDeterministic trains from a quantized dataset at two
// worker counts and demands byte-identical trajectories — dequantization
// happens once per partition load, so parallelism cannot reorder any
// floating-point reduction — and that the loss lands near the float32
// run (storage rounding perturbs inputs, not the learning dynamics).
func TestQuantTrainDeterministic(t *testing.T) {
	const seed, epochs = int64(7), 2
	dir := ingestQuant(t, "fp16")
	opts := func(workers int) []marius.Option {
		return []marius.Option{
			marius.WithSeed(seed), marius.WithPartitions(4),
			marius.WithDim(8), marius.WithFanouts(4, 4),
			marius.WithBatchSize(128), marius.WithWorkers(workers),
		}
	}
	s1, err := marius.FromDataset(dir, opts(1)...)
	if err != nil {
		t.Fatalf("workers=1 session: %v", err)
	}
	defer s1.Close()
	s4, err := marius.FromDataset(dir, opts(4)...)
	if err != nil {
		t.Fatalf("workers=4 session: %v", err)
	}
	defer s4.Close()
	l1 := trainLosses(t, s1, epochs)
	l4 := trainLosses(t, s4, epochs)
	for i := range l1 {
		if l1[i] != l4[i] {
			t.Fatalf("epoch %d loss diverged across worker counts: %v vs %v", i, l1[i], l4[i])
		}
	}
	if !bytes.Equal(checkpointBytes(t, s1), checkpointBytes(t, s4)) {
		t.Fatal("checkpoints differ across worker counts on a quantized dataset")
	}

	// Float32 baseline at the same seed: fp16 storage rounding should
	// move a converging loss by fractions of a percent, not wreck it.
	f32, err := marius.FromDataset(ingestQuant(t, ""), opts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	defer f32.Close()
	lf := trainLosses(t, f32, epochs)
	last, ref := l1[len(l1)-1], lf[len(lf)-1]
	if diff := last - ref; diff < -0.05*ref || diff > 0.05*ref {
		t.Errorf("fp16 final loss %v strays more than 5%% from float32 %v", last, ref)
	}
}

// TestQuantCorruption covers the typed corruption and versioning
// contract for quantized shards: truncation is caught at open, a damaged
// sidecar is caught by validate as a *storage.CorruptError naming
// features.scale.bin, and a version-1 manifest claiming quantization is
// refused.
func TestQuantCorruption(t *testing.T) {
	dir := ingestQuant(t, "int8")
	man, err := storage.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	featPath := filepath.Join(dir, man.Features.Name)
	scalePath := filepath.Join(dir, man.QuantScales.Name)

	// Truncated quantized payload: the exact-size check at open fires.
	feat, err := os.ReadFile(featPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(featPath, feat[:len(feat)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.OpenDataset(nil, dir); !errors.Is(err, storage.ErrCorruptDataset) {
		t.Fatalf("open of truncated quantized features: got %v, want ErrCorruptDataset", err)
	}
	if err := os.WriteFile(featPath, feat, 0o644); err != nil {
		t.Fatal(err)
	}

	// Bit flip in the int8 scale sidecar: size-valid, so the checksum
	// pass catches it and must name the file.
	scales, err := os.ReadFile(scalePath)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), scales...)
	bad[len(bad)/2] ^= 0xFF
	if err := os.WriteFile(scalePath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *storage.CorruptError
	if _, err := dataset.Validate(dir); !errors.As(err, &ce) || ce.Path != man.QuantScales.Name {
		t.Fatalf("validate of corrupt scale sidecar: got %v, want CorruptError on %s", err, man.QuantScales.Name)
	}
	if err := os.WriteFile(scalePath, scales, 0o644); err != nil {
		t.Fatal(err)
	}

	// A version-1 manifest cannot claim quantization: version 1 is the
	// pre-quantization format old readers interpret as float32.
	man.Version = storage.DatasetVersionPlain
	if err := storage.WriteManifest(nil, dir, man); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.OpenDataset(nil, dir); !errors.Is(err, storage.ErrDatasetVersion) {
		t.Fatalf("open of v1 manifest with quant: got %v, want ErrDatasetVersion", err)
	}

	// Quantization without features is rejected at ingest: link
	// prediction's learnable embeddings stay float32.
	exp, err := dataset.Export(gen.KG(smallKG()), t.TempDir(), "tsv")
	if err != nil {
		t.Fatal(err)
	}
	cfg := exp.Config(t.TempDir(), "lp", 3, 4)
	cfg.Quantize = "fp16"
	if _, err := dataset.Ingest(cfg); !errors.Is(err, dataset.ErrBadInput) {
		t.Fatalf("quantized LP ingest: got %v, want ErrBadInput", err)
	}

	// An unknown encoding is rejected up front.
	cfg2 := exp.Config(t.TempDir(), "lp", 3, 4)
	cfg2.Quantize = "fp8"
	if _, err := dataset.Ingest(cfg2); !errors.Is(err, dataset.ErrBadInput) {
		t.Fatalf("unknown quantize mode: got %v, want ErrBadInput", err)
	}
}
