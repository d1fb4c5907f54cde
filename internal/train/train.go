// Package train implements MariusGNN's processing layer: the mini-batch
// lifecycle of paper Fig. 2 (steps 1-6), which is the same for node
// classification and link prediction. One Trainer runs it for both
// tasks as explicit produce/consume stages over the internal/pipeline
// executor. Each epoch walks a policy's partition-visit plan (steps A-D)
// with a prefetcher loading visits (partition staging, edge buckets,
// adjacency) ahead of the trainer, worker goroutines constructing
// batches from per-batch derived seeds, and the compute stage consuming
// them in plan order — serial when PipelineDepth is 0, overlapped
// otherwise, with an identical trajectory either way.
//
// Only three task hooks differ between the tasks (NewNC and NewLP
// install them): a visit's training examples (the not-yet-trained
// partitions' labeled nodes, or the edges of the visit's buckets plus a
// resident negative pool), a batch's input rows (the targets with their
// labels, or the deduped endpoints and negatives), and the loss and
// metric on the encoded batch. Learnable base representations (Config
// EmbOpt) get their gradients written back after every batch.
package train

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/storage"
)

// epochRNG derives the RNG driving one epoch from (seed, epoch) alone, so
// an epoch's plan, shuffles and worker seeds are reproducible from the
// checkpointed seed and epoch counter with no serialized generator state.
func epochRNG(seed int64, epoch int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(epoch)*0x9E3779B9))
}

// ctxErr reports the context's error; a nil context never cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Mode selects the execution strategy.
type Mode int

const (
	// ModeDense is MariusGNN execution: DENSE sampling + dense kernels +
	// pipelined stages.
	ModeDense Mode = iota
	// ModeBaseline models DGL/PyG: per-layer re-sampling + per-edge COO
	// aggregation + synchronous (non-pipelined) execution.
	ModeBaseline
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeBaseline {
		return "baseline"
	}
	return "dense"
}

// EpochStats reports one epoch of training.
type EpochStats struct {
	Epoch    int
	Duration time.Duration
	// Sample and Compute are the summed per-batch stage durations; under
	// pipelining their total can exceed Duration.
	Sample  time.Duration
	Compute time.Duration
	Loss    float64 // mean per-batch loss
	Metric  float64 // train accuracy (NC) or train MRR (LP)
	Batches int
	// Examples is the number of training examples consumed.
	Examples int
	// NodesSampled/EdgesSampled count sampled entries across batches.
	NodesSampled int64
	EdgesSampled int64
	// IO is the node-store IO performed during the epoch (disk mode),
	// including prefetch hit/miss counts for the partition buffer.
	IO storage.StatsSnapshot
	// Visits is the number of partition sets |S| walked.
	Visits int
	// Pipeline reports the pipelined execution of the epoch: effective
	// depth and workers, visits prefetched, and how long the compute
	// stage stalled waiting on loads or batch construction.
	Pipeline pipeline.Stats
}

func (s EpochStats) String() string {
	return fmt.Sprintf("epoch %d: %.2fs loss=%.4f metric=%.4f batches=%d visits=%d io=%.1fMB",
		s.Epoch, s.Duration.Seconds(), s.Loss, s.Metric, s.Batches, s.Visits,
		float64(s.IO.BytesRead+s.IO.BytesWritten)/1e6)
}

// Source bundles the storage-layer handles a trainer consumes.
type Source struct {
	Part     partition.Partitioning
	NumNodes int
	NumRels  int

	Nodes storage.NodeStore
	// Disk is non-nil when Nodes is disk-backed; the trainer then drives
	// partition loading and prefetching through it.
	Disk  *storage.DiskNodeStore
	Edges storage.EdgeStore
	// Frags caches per-bucket CSR fragments over Edges; the trainers
	// compose their incremental visit indexes from it. Created by the
	// source constructors (or lazily by FragCache for hand-built sources).
	Frags *storage.FragCache
}

// FragCache returns the source's fragment cache, creating one sized to
// the training window when the source was built without one: (2c)²
// buckets for a disk buffer of capacity c (resident set plus maximal
// prefetch lookahead), everything for in-memory sources.
func (src *Source) FragCache() *storage.FragCache {
	if src.Frags == nil {
		p := src.Part.NumPartitions
		capBuckets := p * p
		if src.Disk != nil {
			c := src.Disk.Capacity()
			if w := (2*c)*(2*c) + 8; w < capBuckets {
				capBuckets = w
			}
		}
		src.Frags = storage.NewFragCache(src.Edges, src.Part, capBuckets)
	}
	return src.Frags
}

// segTracker carries a trainer's incremental visit index across Load
// calls. Load runs in strict plan order on a single goroutine (the
// pipeline contract), so each visit's view derives from the previous
// visit's by swapping only the changed partitions; views are immutable,
// so in-flight pipelined visits keep sampling from theirs.
type segTracker struct {
	seg *graph.Segmented
}

// refresh returns the view for mem, reusing every fragment shared with
// the previous visit.
func (st *segTracker) refresh(src *Source, mem []int) (*graph.Segmented, error) {
	if st.seg == nil {
		st.seg = graph.NewSegmented(src.FragCache())
	}
	seg, err := st.seg.Swap(mem)
	if err != nil {
		return nil, err
	}
	st.seg = seg
	return seg, nil
}

// residentNodePool appends every node ID whose partition is in mem to
// dst, used to restrict negative sampling to in-memory nodes (paper §3).
func (src *Source) residentNodePool(dst []int32, mem []int) []int32 {
	for _, p := range mem {
		start, end := src.Part.Range(p)
		for id := start; id < end; id++ {
			dst = append(dst, id)
		}
	}
	return dst
}

// deduper assigns dense first-occurrence indices to node IDs using a
// generation-stamped table, the allocation-free counterpart of
// uniqueIndex for the batch-construction hot path.
type deduper struct {
	pos   []int32
	stamp []uint32
	gen   uint32
}

// reset starts a fresh index over the ID space [0, n).
func (d *deduper) reset(n int) {
	if len(d.pos) < n {
		d.pos = make([]int32, n)
		d.stamp = make([]uint32, n)
		d.gen = 0
	}
	d.gen++
	if d.gen == 0 { // wrapped: invalidate everything
		for i := range d.stamp {
			d.stamp[i] = 0
		}
		d.gen = 1
	}
}

// index returns id's dense index, appending id to *uniq on first sight.
func (d *deduper) index(id int32, uniq *[]int32) int32 {
	if d.stamp[id] == d.gen {
		return d.pos[id]
	}
	d.stamp[id] = d.gen
	u := int32(len(*uniq))
	d.pos[id] = u
	*uniq = append(*uniq, id)
	return u
}

// uniqueIndex deduplicates ids preserving first-occurrence order and
// returns the unique list plus the index of each input in it.
func uniqueIndex(ids ...[]int32) (unique []int32, idx [][]int32) {
	seen := make(map[int32]int32, 64)
	idx = make([][]int32, len(ids))
	for g, group := range ids {
		idx[g] = make([]int32, len(group))
		for i, id := range group {
			u, ok := seen[id]
			if !ok {
				u = int32(len(unique))
				seen[id] = u
				unique = append(unique, id)
			}
			idx[g][i] = u
		}
	}
	return unique, idx
}
