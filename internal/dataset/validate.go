package dataset

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/storage"
)

// Validate runs the full dataset integrity suite on dir:
//
//  1. structural checks and exact file sizes (storage.OpenDataset),
//  2. per-bucket and per-file CRC32 checksums (storage.Dataset.Verify),
//  3. semantic checks: every edge decodes into the bucket that holds it,
//     relations/labels/splits are within their declared ranges.
//
// Truncated or corrupt payloads are reported as a typed
// *storage.CorruptError (errors.Is ErrCorrupt) naming the file — and for
// edge storage the bucket — that failed, instead of an opaque
// io.ErrUnexpectedEOF surfacing mid-epoch.
func Validate(dir string) (*storage.Dataset, error) {
	ds, err := storage.OpenDataset(nil, dir)
	if err != nil {
		return nil, err
	}
	if err := ds.Verify(); err != nil {
		return nil, err
	}
	man := ds.Man
	pt := ds.Partitioning()

	// Semantic pass over the edge buckets through the same store the
	// trainers use.
	es, err := ds.EdgeStore(nil)
	if err != nil {
		return nil, err
	}
	defer es.Close()
	var buf []graph.Edge
	for i := 0; i < man.Partitions; i++ {
		for j := 0; j < man.Partitions; j++ {
			buf, err = es.ReadBucket(i, j, buf[:0])
			if err != nil {
				return nil, err
			}
			for _, e := range buf {
				// Range-check endpoints before bucket membership: the
				// last partition's ID range is not PartSize-aligned, so
				// an out-of-range (or negative) ID can still land in a
				// valid-looking bucket.
				if e.Src < 0 || int(e.Src) >= man.NumNodes || e.Dst < 0 || int(e.Dst) >= man.NumNodes {
					return nil, &storage.CorruptError{Path: man.Edges.Name, Bucket: [2]int{i, j},
						Detail: fmt.Sprintf("edge (%d,%d,%d) endpoint out of range [0,%d)",
							e.Src, e.Rel, e.Dst, man.NumNodes)}
				}
				if pt.Of(e.Src) != i || pt.Of(e.Dst) != j {
					return nil, &storage.CorruptError{Path: man.Edges.Name, Bucket: [2]int{i, j},
						Detail: fmt.Sprintf("edge (%d,%d,%d) belongs in bucket (%d,%d)",
							e.Src, e.Rel, e.Dst, pt.Of(e.Src), pt.Of(e.Dst))}
				}
				if e.Rel < 0 || int(e.Rel) >= man.NumRels {
					return nil, &storage.CorruptError{Path: man.Edges.Name, Bucket: [2]int{i, j},
						Detail: fmt.Sprintf("relation %d out of range [0,%d)", e.Rel, man.NumRels)}
				}
			}
		}
	}

	checkNodes := func(ids []int32, what string) error {
		for _, id := range ids {
			if id < 0 || int(id) >= man.NumNodes {
				return &storage.CorruptError{Path: what, Bucket: [2]int{-1, -1},
					Detail: fmt.Sprintf("node %d out of range [0,%d)", id, man.NumNodes)}
			}
		}
		return nil
	}
	train, valid, test, err := ds.ReadSplits()
	if err != nil {
		return nil, err
	}
	for _, s := range []struct {
		ids  []int32
		file *storage.DatasetFile
	}{{train, man.TrainNodes}, {valid, man.ValidNodes}, {test, man.TestNodes}} {
		if s.file != nil {
			if err := checkNodes(s.ids, s.file.Name); err != nil {
				return nil, err
			}
		}
	}
	labels, err := ds.ReadLabels()
	if err != nil {
		return nil, err
	}
	for v, lab := range labels {
		if lab >= 0 && man.NumClasses > 0 && int(lab) >= man.NumClasses {
			return nil, &storage.CorruptError{Path: man.Labels.Name, Bucket: [2]int{-1, -1},
				Detail: fmt.Sprintf("node %d label %d out of range [0,%d)", v, lab, man.NumClasses)}
		}
	}
	// Every NC training node must be labeled: a -1 would reach the
	// classification loss as a bogus class index mid-epoch.
	if man.Task == "nc" && man.Labels != nil {
		for _, id := range train {
			if labels[id] < 0 {
				return nil, &storage.CorruptError{Path: man.TrainNodes.Name, Bucket: [2]int{-1, -1},
					Detail: fmt.Sprintf("train node %d has no label", id)}
			}
		}
	}
	hv, ht, err := ds.ReadHeldOut()
	if err != nil {
		return nil, err
	}
	for _, h := range []struct {
		edges []graph.Edge
		file  *storage.DatasetFile
	}{{hv, man.ValidEdges}, {ht, man.TestEdges}} {
		if h.file == nil {
			continue
		}
		for _, e := range h.edges {
			if e.Src < 0 || int(e.Src) >= man.NumNodes || e.Dst < 0 || int(e.Dst) >= man.NumNodes ||
				e.Rel < 0 || int(e.Rel) >= man.NumRels {
				return nil, &storage.CorruptError{Path: h.file.Name, Bucket: [2]int{-1, -1},
					Detail: fmt.Sprintf("edge (%d,%d,%d) out of range", e.Src, e.Rel, e.Dst)}
			}
		}
	}
	return ds, nil
}

// Report summarizes a dataset for mariusprep inspect (manifest metadata
// plus bucket distribution; no payload scan).
type Report struct {
	Man *storage.Manifest

	NonEmptyBuckets int
	MinBucket       int64 // over non-empty buckets; 0 when all empty
	MaxBucket       int64
	MeanBucket      float64 // over all p² buckets
	PayloadBytes    int64   // total declared payload size
}

// Inspect opens dir and summarizes it from the manifest alone.
func Inspect(dir string) (*Report, error) {
	ds, err := storage.OpenDataset(nil, dir)
	if err != nil {
		return nil, err
	}
	man := ds.Man
	r := &Report{Man: man, PayloadBytes: man.Edges.Bytes}
	r.MinBucket = -1
	for _, c := range man.BucketCounts {
		if c == 0 {
			continue
		}
		r.NonEmptyBuckets++
		if r.MinBucket < 0 || c < r.MinBucket {
			r.MinBucket = c
		}
		if c > r.MaxBucket {
			r.MaxBucket = c
		}
	}
	if r.MinBucket < 0 {
		r.MinBucket = 0
	}
	if n := len(man.BucketCounts); n > 0 {
		r.MeanBucket = float64(man.NumEdges) / float64(n)
	}
	for _, f := range []*storage.DatasetFile{
		man.Features, man.Labels, man.TrainNodes, man.ValidNodes,
		man.TestNodes, man.ValidEdges, man.TestEdges, man.Dict,
	} {
		if f != nil {
			r.PayloadBytes += f.Bytes
		}
	}
	return r, nil
}
