package storage

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// This file is the read side of the preprocessed on-disk dataset layout
// produced by internal/dataset (cmd/mariusprep). A dataset directory is
// self-describing:
//
//	manifest.json    versioned metadata: task, seed, partitioning, per-
//	                 bucket edge counts and CRC32 checksums, and an entry
//	                 (name, byte size, CRC32) for every payload file
//	edges.bin        train edges bucket-sorted by (src partition, dst
//	                 partition), 12-byte little-endian (src, rel, dst)
//	                 triples — byte-compatible with DiskEdgeStore
//	features.bin     float32 node base representations, row-major in
//	                 final node-ID order — byte-compatible with
//	                 DiskNodeStore's table file (NC only)
//	labels.bin       int32 class per node in final node-ID order (NC only)
//	{train,valid,test}_nodes.bin   int32 node-ID lists, split order
//	                               preserved (NC only)
//	{valid,test}_edges.bin         held-out edge triples, order preserved
//	                               (LP only)
//	dict.tsv         raw source ID of each final node ID, one per line
//
// Node IDs in every file are *final* IDs: the ingest step already applied
// the same seeded partition relabeling (partition.RandomOrder or
// TrainFirstOrder) that marius.New applies to an in-memory graph, so
// training from a dataset follows the identical trajectory.
//
// Versioning: Manifest.Version is DatasetVersion; OpenDataset rejects any
// other value with ErrDatasetVersion — layout changes bump the version
// (there is no in-place migration; re-run mariusprep prep).

// Dataset layout versions. Ingest writes the lowest version that can
// describe the dataset, so UUIDs of already-expressible datasets — which
// hash the version — stay stable across builds:
//
//	1 (DatasetVersionPlain)      the original layout, still written for
//	                             unquantized single-relation datasets
//	2 (DatasetVersion)           adds quantized feature storage
//	                             (Manifest.Quant + the int8 scale sidecar)
//	3 (DatasetVersionRelations)  declares a multi-relation edge set
//	                             (NumRels > 1); the 12-byte edge triples
//	                             always carried a relation slot, but
//	                             relation-blind readers ignored it, so
//	                             multi-relation data must fail typed on
//	                             them instead of silently training every
//	                             edge as relation 0
//
// ReadManifest accepts versions 1 through DatasetVersionRelations and
// rejects anything else with ErrDatasetVersion — there is no in-place
// migration; re-run mariusprep prep.
const (
	DatasetVersionPlain     = 1
	DatasetVersion          = 2
	DatasetVersionRelations = 3
)

// ManifestName is the manifest file name inside a dataset directory.
const ManifestName = "manifest.json"

// Typed dataset errors, matchable with errors.Is.
var (
	// ErrNoDataset is returned when dir holds no dataset manifest.
	ErrNoDataset = errors.New("no dataset manifest")
	// ErrDatasetVersion is returned for a manifest with an unsupported
	// layout version.
	ErrDatasetVersion = errors.New("unsupported dataset version")
	// ErrCorruptDataset is returned (wrapped in *CorruptError) when a
	// payload file is missing, truncated, or fails its checksum.
	ErrCorruptDataset = errors.New("corrupt dataset")
)

// CorruptError pinpoints a corrupt dataset payload: which file, and for
// edge storage which bucket, failed validation. It unwraps to
// ErrCorruptDataset.
type CorruptError struct {
	Path   string
	Bucket [2]int // bucket coordinates, or {-1,-1} for whole-file failures
	Detail string
}

// Error implements error.
func (e *CorruptError) Error() string {
	if e.Bucket[0] >= 0 {
		return fmt.Sprintf("storage: %v: %s bucket (%d,%d): %s",
			ErrCorruptDataset, e.Path, e.Bucket[0], e.Bucket[1], e.Detail)
	}
	return fmt.Sprintf("storage: %v: %s: %s", ErrCorruptDataset, e.Path, e.Detail)
}

// Unwrap implements errors.Unwrap.
func (e *CorruptError) Unwrap() error { return ErrCorruptDataset }

func corrupt(path string, detail string, args ...any) *CorruptError {
	return &CorruptError{Path: path, Bucket: [2]int{-1, -1}, Detail: fmt.Sprintf(detail, args...)}
}

// DatasetFile records one payload file: its name inside the dataset
// directory, exact byte size, and IEEE CRC32 of its contents.
type DatasetFile struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
	CRC32 uint32 `json:"crc32"`
}

// Manifest is the dataset's metadata, serialized as manifest.json.
type Manifest struct {
	Version    int    `json:"version"`
	Task       string `json:"task"` // "nc" or "lp"
	Seed       int64  `json:"seed"`
	Partitions int    `json:"partitions"`

	// UUID is a deterministic fingerprint of the dataset's identity
	// (task, seed, partitioning and per-bucket contents), computed at
	// ingest by ComputeUUID. Checkpoints saved from a dataset session
	// embed it, so serving can warn when a checkpoint is loaded against
	// a different dataset than it was trained on. Empty for datasets
	// prepped before the field existed.
	UUID string `json:"uuid,omitempty"`

	NumNodes   int   `json:"num_nodes"`
	NumRels    int   `json:"num_rels"`
	NumEdges   int64 `json:"num_edges"`
	FeatureDim int   `json:"feature_dim,omitempty"`
	NumClasses int   `json:"num_classes,omitempty"`

	// Quant names the feature table's storage encoding: "" (float32),
	// "fp16" (IEEE binary16), or "int8" (per-row affine uint8 with a
	// float32 (scale, zero) pair per row in the QuantScales sidecar).
	// Quantization happens exactly once at ingest; every reader
	// dequantizes the same stored bytes, so a quantized dataset trains
	// and serves bit-identically at any worker count. Non-empty Quant
	// requires Version >= 2.
	Quant string `json:"quant,omitempty"`

	// BucketCounts[i*p+j] is the edge count of bucket (i,j);
	// BucketCRCs[i*p+j] the IEEE CRC32 of that bucket's encoded bytes in
	// edges.bin. Per-bucket checksums let validation (and mariusprep
	// validate) localize corruption to a bucket instead of surfacing a
	// raw io.ErrUnexpectedEOF mid-epoch.
	BucketCounts []int64  `json:"bucket_counts"`
	BucketCRCs   []uint32 `json:"bucket_crc32s"`

	Edges      DatasetFile  `json:"edges"` // CRC32 0: integrity is per bucket
	Features   *DatasetFile `json:"features,omitempty"`
	Labels     *DatasetFile `json:"labels,omitempty"`
	TrainNodes *DatasetFile `json:"train_nodes,omitempty"`
	ValidNodes *DatasetFile `json:"valid_nodes,omitempty"`
	TestNodes  *DatasetFile `json:"test_nodes,omitempty"`
	ValidEdges *DatasetFile `json:"valid_edges,omitempty"`
	TestEdges  *DatasetFile `json:"test_edges,omitempty"`
	Dict       *DatasetFile `json:"dict,omitempty"`

	// QuantScales is the int8 dequantization sidecar: one little-endian
	// float32 (scale, zero) pair per node, in final node-ID order.
	QuantScales *DatasetFile `json:"quant_scales,omitempty"`

	// Ingest provenance: spill runs of the external sort and the
	// configured memory cap, for inspect output.
	SpillRuns int   `json:"spill_runs,omitempty"`
	MemLimit  int64 `json:"mem_limit_bytes,omitempty"`
}

// Partitioning returns the node partitioning the dataset was prepared
// with.
func (m *Manifest) Partitioning() partition.Partitioning {
	return partition.New(m.NumNodes, m.Partitions)
}

// QuantKind returns the feature table's storage encoding. The manifest
// was validated at read time, so an unknown mode cannot reach here.
func (m *Manifest) QuantKind() tensor.QuantKind {
	k, _ := tensor.ParseQuant(m.Quant)
	return k
}

// FeatureElemBytes returns the on-disk size of one feature element
// (4 for float32, 2 for fp16, 1 for int8).
func (m *Manifest) FeatureElemBytes() int { return m.QuantKind().ElemBytes() }

// ComputeUUID derives the dataset's deterministic identity fingerprint
// from the fields that pin its contents: task, seed, partition count,
// node/relation/edge counts, and the per-bucket edge counts and CRCs.
// Re-ingesting the same raw data with the same configuration reproduces
// the same UUID; any change to the prepared edges changes it.
func (m *Manifest) ComputeUUID() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%d|%d|%d|%d", m.Version, m.Task, m.Seed, m.Partitions, m.NumNodes, m.NumRels, m.NumEdges)
	// Quantization changes the stored feature bytes, so it is part of the
	// identity. Appended only when set, keeping version-1 UUIDs unchanged.
	if m.Quant != "" {
		fmt.Fprintf(h, "|q=%s", m.Quant)
	}
	var buf [12]byte
	for i, n := range m.BucketCounts {
		binary.LittleEndian.PutUint64(buf[:8], uint64(n))
		binary.LittleEndian.PutUint32(buf[8:], m.BucketCRCs[i])
		h.Write(buf[:])
	}
	return fmt.Sprintf("ds1-%016x", h.Sum64())
}

// WriteManifest atomically and durably writes m as dir/manifest.json
// through fsys (nil means the real filesystem): the temp file is fsynced
// before the rename (and the directory after), so a crash right after the
// rename cannot leave an empty or truncated manifest where a complete one
// was promised.
func WriteManifest(fsys fault.FS, dir string, m *Manifest) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return fault.AtomicWrite(fsys, filepath.Join(dir, ManifestName), ".manifest-*", func(w io.Writer) error {
		_, err := w.Write(append(buf, '\n'))
		return err
	})
}

// ReadManifest reads and structurally validates dir/manifest.json.
func ReadManifest(dir string) (*Manifest, error) {
	buf, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("storage: %w in %s", ErrNoDataset, dir)
		}
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("storage: %w: malformed manifest: %v", ErrCorruptDataset, err)
	}
	if m.Version < DatasetVersionPlain || m.Version > DatasetVersionRelations {
		return nil, fmt.Errorf("storage: %w: dataset version %d, this build reads %d-%d",
			ErrDatasetVersion, m.Version, DatasetVersionPlain, DatasetVersionRelations)
	}
	if m.NumRels > 1 && m.Version < DatasetVersionRelations {
		return nil, fmt.Errorf("storage: %w: %d relation types require dataset version %d, manifest declares %d",
			ErrDatasetVersion, m.NumRels, DatasetVersionRelations, m.Version)
	}
	if _, err := tensor.ParseQuant(m.Quant); err != nil {
		return nil, corrupt(ManifestName, "unknown quantization mode %q", m.Quant)
	}
	if m.Quant != "" && m.Version < DatasetVersion {
		return nil, fmt.Errorf("storage: %w: quantized features (%s) require dataset version %d, manifest declares %d",
			ErrDatasetVersion, m.Quant, DatasetVersion, m.Version)
	}
	if m.Quant == "int8" && m.Features != nil && m.QuantScales == nil {
		return nil, corrupt(ManifestName, "int8 features declared without a quant_scales sidecar")
	}
	if m.NumNodes <= 0 || m.Partitions <= 0 {
		return nil, corrupt(ManifestName, "non-positive nodes (%d) or partitions (%d)", m.NumNodes, m.Partitions)
	}
	p := m.Partitions
	if len(m.BucketCounts) != p*p || len(m.BucketCRCs) != p*p {
		return nil, corrupt(ManifestName, "bucket tables hold %d/%d entries, want %d",
			len(m.BucketCounts), len(m.BucketCRCs), p*p)
	}
	var total int64
	for b, c := range m.BucketCounts {
		if c < 0 {
			return nil, corrupt(ManifestName, "negative count for bucket %d", b)
		}
		total += c
	}
	if total != m.NumEdges {
		return nil, corrupt(ManifestName, "bucket counts sum to %d edges, manifest says %d", total, m.NumEdges)
	}
	if m.Edges.Bytes != m.NumEdges*edgeBytes {
		return nil, corrupt(ManifestName, "edges file declared %d bytes, %d edges need %d",
			m.Edges.Bytes, m.NumEdges, m.NumEdges*edgeBytes)
	}
	return &m, nil
}

// Dataset is an opened (structurally validated) preprocessed dataset
// directory.
type Dataset struct {
	Dir string
	Man *Manifest
	pt  partition.Partitioning
	fs  fault.FS
}

// OpenDataset reads dir's manifest and verifies that every declared
// payload file exists with its exact declared size, so truncated files
// are rejected here with a typed *CorruptError instead of surfacing as a
// raw io.ErrUnexpectedEOF mid-epoch. Contents are not checksummed — run
// Verify (mariusprep validate) for the full integrity pass. Payloads are
// read through fsys (nil means the real filesystem); every store and
// payload read derived from the returned Dataset goes through the same
// FS.
func OpenDataset(fsys fault.FS, dir string) (*Dataset, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	d := &Dataset{Dir: dir, Man: m, pt: m.Partitioning(), fs: fault.Or(fsys)}
	files := append([]*DatasetFile{&m.Edges},
		m.Features, m.Labels, m.TrainNodes, m.ValidNodes, m.TestNodes,
		m.ValidEdges, m.TestEdges, m.Dict, m.QuantScales)
	for _, f := range files {
		if f == nil {
			continue
		}
		st, err := d.fs.Stat(filepath.Join(dir, f.Name))
		if err != nil {
			return nil, corrupt(f.Name, "missing payload file: %v", err)
		}
		if st.Size() != f.Bytes {
			return nil, corrupt(f.Name, "%d bytes on disk, manifest declares %d (truncated or overwritten)",
				st.Size(), f.Bytes)
		}
	}
	if m.Features != nil {
		want := int64(m.NumNodes) * int64(m.FeatureDim) * int64(m.FeatureElemBytes())
		if m.Features.Bytes != want {
			return nil, corrupt(m.Features.Name, "declared %d bytes, %d nodes x %d dims at %d bytes/elem need %d",
				m.Features.Bytes, m.NumNodes, m.FeatureDim, m.FeatureElemBytes(), want)
		}
		if m.QuantScales != nil {
			if wantSc := int64(m.NumNodes) * 8; m.QuantScales.Bytes != wantSc {
				return nil, corrupt(m.QuantScales.Name, "declared %d bytes, %d (scale, zero) pairs need %d",
					m.QuantScales.Bytes, m.NumNodes, wantSc)
			}
		}
	}
	if m.Labels != nil && m.Labels.Bytes != int64(m.NumNodes)*4 {
		return nil, corrupt(m.Labels.Name, "declared %d bytes for %d int32 labels", m.Labels.Bytes, m.NumNodes)
	}
	return d, nil
}

// Partitioning returns the dataset's node partitioning.
func (d *Dataset) Partitioning() partition.Partitioning { return d.pt }

// path resolves a payload file name inside the dataset directory.
func (d *Dataset) path(name string) string { return filepath.Join(d.Dir, name) }

// EdgeStore opens the bucket-sorted edge file as a DiskEdgeStore, served
// straight off the preprocessed bytes: bucket offsets come from the
// manifest counts, so no ingest-time re-sort (or even a full read)
// happens at open.
func (d *Dataset) EdgeStore(throttle *Throttle) (*DiskEdgeStore, error) {
	return openDiskEdgeStore(d.fs, d.path(d.Man.Edges.Name), d.pt, d.Man.BucketCounts, throttle)
}

// NodeStore pages the dataset's feature table through a partition buffer
// of the given capacity — the disk-storage training path for node
// classification. The store is read-only (features are fixed); the
// dataset file itself backs the pages.
func (d *Dataset) NodeStore(capacity int, throttle *Throttle) (*DiskNodeStore, error) {
	if d.Man.Features == nil {
		return nil, fmt.Errorf("storage: dataset %s carries no feature table", d.Dir)
	}
	cfg := DiskStoreConfig{
		Part:     d.pt,
		Dim:      d.Man.FeatureDim,
		Capacity: capacity,
		Throttle: throttle,
		Quant:    d.Man.QuantKind(),
		FS:       d.fs,
	}
	if d.Man.QuantScales != nil {
		cfg.ScalePath = d.path(d.Man.QuantScales.Name)
	}
	return OpenDiskNodeStore(cfg, d.path(d.Man.Features.Name))
}

// ReadFeatures loads the full feature table into memory as float32 (the
// in-memory training path), dequantizing quantized storage.
func (d *Dataset) ReadFeatures() (*tensor.Tensor, error) {
	if d.Man.QuantKind() != tensor.QuantNone {
		q, err := d.ReadQuantFeatures()
		if err != nil {
			return nil, err
		}
		return q.Dequant(), nil
	}
	if d.Man.Features == nil {
		return nil, fmt.Errorf("storage: dataset %s carries no feature table", d.Dir)
	}
	f, err := d.fs.Open(d.path(d.Man.Features.Name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t := tensor.New(d.Man.NumNodes, d.Man.FeatureDim)
	if err := readFloats(f, 0, t.Data, nil, nil); err != nil {
		return nil, corrupt(d.Man.Features.Name, "short read: %v", err)
	}
	return t, nil
}

// readAllPayload reads one payload file fully through the dataset's FS
// and the fault package's loop-to-fill, transient-retry transfer loop.
func (d *Dataset) readAllPayload(name string, size int64) ([]byte, error) {
	f, err := d.fs.Open(d.path(name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, size)
	if err := fault.ReadFullAt(f, buf, 0, nil); err != nil {
		return nil, corrupt(name, "short read: %v", err)
	}
	return buf, nil
}

// ReadQuantFeatures loads a quantized feature table into memory in its
// compressed form — half (fp16) or a quarter (int8) of the float32
// footprint — for consumers that can score against a tensor.QTable
// directly (the serving path).
func (d *Dataset) ReadQuantFeatures() (*tensor.QTable, error) {
	kind := d.Man.QuantKind()
	if kind == tensor.QuantNone {
		return nil, fmt.Errorf("storage: dataset %s is not quantized", d.Dir)
	}
	if d.Man.Features == nil {
		return nil, fmt.Errorf("storage: dataset %s carries no feature table", d.Dir)
	}
	q := tensor.NewQTable(kind, d.Man.NumNodes, d.Man.FeatureDim)
	raw, err := d.readAllPayload(d.Man.Features.Name, d.Man.Features.Bytes)
	if err != nil {
		return nil, err
	}
	q.Raw = raw
	if kind == tensor.QuantI8 {
		f, err := d.fs.Open(d.path(d.Man.QuantScales.Name))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		pairs := make([]float32, 2*d.Man.NumNodes)
		if err := readFloats(f, 0, pairs, nil, nil); err != nil {
			return nil, corrupt(d.Man.QuantScales.Name, "short read: %v", err)
		}
		for i := 0; i < d.Man.NumNodes; i++ {
			q.Scale[i], q.Zero[i] = pairs[2*i], pairs[2*i+1]
		}
	}
	return q, nil
}

// readInt32File loads a little-endian int32 array payload.
func (d *Dataset) readInt32File(f *DatasetFile) ([]int32, error) {
	if f == nil {
		return nil, nil
	}
	if f.Bytes%4 != 0 {
		return nil, corrupt(f.Name, "%d bytes is not a whole number of int32s", f.Bytes)
	}
	buf, err := d.readAllPayload(f.Name, f.Bytes)
	if err != nil {
		return nil, err
	}
	out := make([]int32, len(buf)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	return out, nil
}

// ReadLabels loads the per-node class labels (nil when absent).
func (d *Dataset) ReadLabels() ([]int32, error) { return d.readInt32File(d.Man.Labels) }

// ReadSplits loads the train/valid/test node-ID lists (nil when absent),
// preserving the split order the dataset was prepared with.
func (d *Dataset) ReadSplits() (train, valid, test []int32, err error) {
	if train, err = d.readInt32File(d.Man.TrainNodes); err != nil {
		return nil, nil, nil, err
	}
	if valid, err = d.readInt32File(d.Man.ValidNodes); err != nil {
		return nil, nil, nil, err
	}
	if test, err = d.readInt32File(d.Man.TestNodes); err != nil {
		return nil, nil, nil, err
	}
	return train, valid, test, nil
}

// readEdgeFile loads a held-out edge payload (order preserved).
func (d *Dataset) readEdgeFile(f *DatasetFile) ([]graph.Edge, error) {
	if f == nil {
		return nil, nil
	}
	if f.Bytes%edgeBytes != 0 {
		return nil, corrupt(f.Name, "%d bytes is not a whole number of %d-byte edges", f.Bytes, edgeBytes)
	}
	buf, err := d.readAllPayload(f.Name, f.Bytes)
	if err != nil {
		return nil, err
	}
	return decodeEdges(buf, make([]graph.Edge, 0, len(buf)/edgeBytes)), nil
}

// ReadHeldOut loads the valid and test edge splits (nil when absent).
func (d *Dataset) ReadHeldOut() (valid, test []graph.Edge, err error) {
	if valid, err = d.readEdgeFile(d.Man.ValidEdges); err != nil {
		return nil, nil, err
	}
	if test, err = d.readEdgeFile(d.Man.TestEdges); err != nil {
		return nil, nil, err
	}
	return valid, test, nil
}

// verifyFileCRC checksums one payload file against its manifest entry.
func (d *Dataset) verifyFileCRC(f *DatasetFile) error {
	if f == nil {
		return nil
	}
	fh, err := d.fs.Open(d.path(f.Name))
	if err != nil {
		return corrupt(f.Name, "missing payload file: %v", err)
	}
	defer fh.Close()
	h := crc32.NewIEEE()
	n, err := io.Copy(h, fh)
	if err != nil {
		return corrupt(f.Name, "read failed: %v", err)
	}
	if n != f.Bytes {
		return corrupt(f.Name, "%d bytes on disk, manifest declares %d (truncated)", n, f.Bytes)
	}
	if h.Sum32() != f.CRC32 {
		return corrupt(f.Name, "checksum %08x, manifest declares %08x", h.Sum32(), f.CRC32)
	}
	return nil
}

// Verify runs the full integrity pass: every payload file is checksummed
// against the manifest, and every edge bucket is checksummed individually
// so corruption is reported as a typed *CorruptError naming the bucket.
func (d *Dataset) Verify() error {
	// Per-bucket edge checksums.
	f, err := d.fs.Open(d.path(d.Man.Edges.Name))
	if err != nil {
		return corrupt(d.Man.Edges.Name, "missing payload file: %v", err)
	}
	defer f.Close()
	p := d.Man.Partitions
	buf := make([]byte, 1<<20)
	var off int64
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			b := d.pt.BucketID(i, j)
			want := d.Man.BucketCounts[b] * edgeBytes
			crc := uint32(0)
			for rem := want; rem > 0; {
				n := int64(len(buf))
				if rem < n {
					n = rem
				}
				if err := fault.ReadFullAt(f, buf[:n], off, nil); err != nil {
					return &CorruptError{Path: d.Man.Edges.Name, Bucket: [2]int{i, j},
						Detail: fmt.Sprintf("truncated at byte %d: %v", off, err)}
				}
				crc = crc32.Update(crc, crc32.IEEETable, buf[:n])
				off += n
				rem -= n
			}
			if crc != d.Man.BucketCRCs[b] {
				return &CorruptError{Path: d.Man.Edges.Name, Bucket: [2]int{i, j},
					Detail: fmt.Sprintf("checksum %08x, manifest declares %08x", crc, d.Man.BucketCRCs[b])}
			}
		}
	}
	for _, df := range []*DatasetFile{
		d.Man.Features, d.Man.Labels, d.Man.TrainNodes, d.Man.ValidNodes,
		d.Man.TestNodes, d.Man.ValidEdges, d.Man.TestEdges, d.Man.Dict,
		d.Man.QuantScales,
	} {
		if err := d.verifyFileCRC(df); err != nil {
			return err
		}
	}
	return nil
}

// openDiskEdgeStore serves edge buckets from an existing bucket-sorted
// file laid out exactly as CreateDiskEdgeStore writes it, opened
// read-only through fsys; counts gives the p² bucket edge counts in
// BucketID order (the manifest's BucketCounts).
func openDiskEdgeStore(fsys fault.FS, path string, pt partition.Partitioning, counts []int64, throttle *Throttle) (*DiskEdgeStore, error) {
	p := pt.NumPartitions
	if len(counts) != p*p {
		return nil, fmt.Errorf("storage: %d bucket counts for %d partitions", len(counts), p)
	}
	offsets := make([]int64, p*p+1)
	for b, c := range counts {
		offsets[b+1] = offsets[b] + c
	}
	f, err := fault.Or(fsys).Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < offsets[p*p]*edgeBytes {
		f.Close()
		return nil, corrupt(filepath.Base(path), "%d bytes on disk, %d edges need %d (truncated)",
			st.Size(), offsets[p*p], offsets[p*p]*edgeBytes)
	}
	return &DiskEdgeStore{pt: pt, f: f, offsets: offsets, throttle: throttle}, nil
}
