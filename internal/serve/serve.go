// Package serve is the forward-only online inference subsystem: it loads
// a checkpoint plus a prepared dataset read-only, runs encode (k-hop
// DENSE sample + GNN forward on the shared internal/encode substrate) and
// decode (NC class prediction; LP top-k tail scoring via the fused
// GatherMatMulTB kernel), and aggregates concurrent requests through a
// bounded queue into micro-batches — the serving analog of the training
// pipeline's bounded-queue stages.
//
// # Request lifecycle
//
// A request enqueues into a bounded channel and blocks until answered.
// A single dispatcher goroutine collects up to Config.MaxBatch requests
// (waiting at most Config.MaxWait after the first), pins the current
// model snapshot, samples each request's neighborhood with a
// request-derived seed, concatenates the per-request DENSE structures
// into one merged DENSE, and runs one encoder forward + one decode
// kernel launch for the whole micro-batch.
//
// # Determinism
//
// Micro-batching never changes results: every kernel parallelizes only
// across output rows/segments with a fixed per-element accumulation
// order, each request's neighborhood is sampled with its own seed
// (independent of co-batched requests), and the merged DENSE keeps each
// request's blocks disjoint — so a request's outputs are byte-identical
// whether it is served alone or batched with others, and byte-identical
// to the training-side eval forward pass for the same checkpoint,
// targets and seed.
//
// # Hot reload
//
// Reload loads a new checkpoint and atomically swaps the snapshot
// pointer. Checkpoint-independent state (dataset, feature shards,
// adjacency) lives in Context and is shared across snapshots; each
// micro-batch pins exactly one snapshot, so in-flight requests finish on
// the snapshot they started with — old and new outputs are never mixed
// within a response.
package serve

import (
	"fmt"
	"io"
	"time"

	"repro/internal/encode"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// Config tunes the server. The zero value resolves to the defaults
// below.
type Config struct {
	// MaxBatch is the micro-batch size cap (default 32): the dispatcher
	// launches a batch as soon as this many requests are queued.
	MaxBatch int
	// MaxWait bounds how long the dispatcher waits for co-batched
	// requests after the first one arrives (default 2ms).
	MaxWait time.Duration
	// QueueCap is the bounded request queue length (default 4*MaxBatch).
	// A request arriving at a full queue is shed immediately with
	// ErrOverloaded (HTTP 503 + Retry-After) instead of queueing without
	// bound: under overload, admitted requests keep a bounded latency and
	// the excess fails fast.
	QueueCap int
	// Workers is the kernel fan-out (default 4). Kernels are bitwise
	// deterministic at every worker count.
	Workers int
	// Seed mixes into request-content-derived sampling seeds, so two
	// servers can serve decorrelated samples; requests carrying an
	// explicit seed are unaffected.
	Seed int64
	// InMemory loads NC feature shards fully into memory instead of
	// gathering from the partition-buffered disk store. Quantized
	// datasets stay in their compressed form in memory.
	InMemory bool
	// QuantizeTable quantizes the precomputed LP encoding table to
	// "fp16" or "int8" after it is built, halving or quartering its
	// resident memory. Scoring then runs the fused dequantizing kernel;
	// results stay bit-identical across worker counts and batch shapes
	// but differ from the unquantized table by the storage rounding, so
	// the default ("") keeps exact float32 scores.
	QuantizeTable string
	// Tracer, when non-nil, records serving-stage spans (queue wait,
	// sample, encode, decode) in Chrome Trace Event Format. Purely
	// observational; results are identical with it on or off.
	Tracer *obs.Tracer
	// RequestTimeout, when positive, bounds each request's total time in
	// the server (queue wait plus its micro-batch): on expiry the caller
	// gets context.DeadlineExceeded (HTTP 504) and the
	// serve_deadline_expired_total counter increments. Zero means no
	// server-imposed deadline (callers may still pass their own context
	// deadlines).
	RequestTimeout time.Duration
	// Hooks, when non-nil, attaches chaos/test instrumentation points;
	// see Hooks. Nil (the default) costs nothing on the request path.
	Hooks *Hooks
}

// Hooks are chaos-testing instrumentation points. All fields are
// optional; nil functions are never called.
type Hooks struct {
	// BeforeBatch runs on the dispatcher goroutine just before each
	// micro-batch is served, inside the server's panic-recovery scope: a
	// hook that panics exercises fault containment (the batch's requests
	// fail, the counter increments, and the server keeps serving).
	BeforeBatch func(batchSize int)
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.MaxBatch
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	return c
}

// Context is the checkpoint-independent serving state: the validated
// dataset, the full-graph adjacency (built from the bucket-ordered edge
// file, exactly as training-side evaluation builds it), and for node
// classification the read-only feature store. One Context is shared by
// every snapshot a server hot-reloads, so a reload never reopens shards
// or rebuilds the adjacency.
type Context struct {
	Dir string
	DS  *storage.Dataset
	Adj *graph.Adjacency

	// Features is the NC base-representation store (nil for LP, whose
	// base table comes from the checkpoint).
	Features encode.Store

	// allNodes caches [0 .. NumNodes) for full-entity top-k scoring via
	// the fused GatherMatMulTB kernel.
	allNodes []int32

	closer io.Closer // disk-backed feature store, when one was opened

	// featStats are the disk feature store's IO counters (nil for
	// in-memory or LP datasets); New bridges them into the registry.
	featStats *storage.Stats
}

// Open validates the dataset directory (storage.OpenDataset checks the
// layout and file sizes) and builds the checkpoint-independent serving
// state. Everything is opened read-only; serving never mutates a
// dataset.
func Open(dir string, cfg Config) (*Context, error) {
	cfg = cfg.withDefaults()
	ds, err := storage.OpenDataset(nil, dir)
	if err != nil {
		return nil, err
	}
	man := ds.Man

	// The serving adjacency replicates evaluation's: all buckets in
	// (i,j) order off the dataset's bucket-sorted edge file. This keeps
	// served samples on the same neighbor layout eval uses.
	es, err := ds.EdgeStore(nil)
	if err != nil {
		return nil, err
	}
	p := man.Partitions
	var total int64
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			total += int64(es.BucketLen(i, j))
		}
	}
	edges := make([]graph.Edge, 0, total)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if edges, err = es.ReadBucket(i, j, edges); err != nil {
				es.Close()
				return nil, err
			}
		}
	}
	if err := es.Close(); err != nil {
		return nil, err
	}

	ctx := &Context{Dir: dir, DS: ds, Adj: graph.BuildAdjacency(man.NumNodes, edges)}
	ctx.allNodes = make([]int32, man.NumNodes)
	for i := range ctx.allNodes {
		ctx.allNodes[i] = int32(i)
	}
	if man.Task == "nc" {
		if cfg.InMemory {
			if man.QuantKind() != tensor.QuantNone {
				// Keep the table compressed in memory; gathers
				// dequantize per row, byte-identical to loading the
				// dequantized float32 table at 1/2 (fp16) or 1/4
				// (int8) of the footprint.
				q, err := ds.ReadQuantFeatures()
				if err != nil {
					return nil, err
				}
				ctx.Features = encode.QuantStore{Q: q}
			} else {
				table, err := ds.ReadFeatures()
				if err != nil {
					return nil, err
				}
				ctx.Features = encode.TensorStore{T: table}
			}
		} else {
			// Open the feature shard through the existing open-existing
			// DiskNodeStore path with capacity = partitions and make every
			// partition resident once: gathers then serve straight from the
			// buffer with no IO on the request path.
			ns, err := ds.NodeStore(man.Partitions, nil)
			if err != nil {
				return nil, err
			}
			parts := make([]int, man.Partitions)
			for i := range parts {
				parts[i] = i
			}
			if err := ns.LoadSet(parts); err != nil {
				ns.Close()
				return nil, err
			}
			ctx.Features = ns
			ctx.closer = ns
			ctx.featStats = ns.Stats()
		}
	}
	return ctx, nil
}

// Task returns the dataset's task name ("nc" or "lp").
func (c *Context) Task() string { return c.DS.Man.Task }

// NumNodes returns the dataset's node count.
func (c *Context) NumNodes() int { return c.DS.Man.NumNodes }

// Close releases the feature store, if one was opened.
func (c *Context) Close() error {
	if c.closer != nil {
		return c.closer.Close()
	}
	return nil
}

// validNode range-checks a node ID against the dataset.
func (c *Context) validNode(id int32) error {
	if id < 0 || int(id) >= c.DS.Man.NumNodes {
		return fmt.Errorf("%w: node %d out of range [0,%d)", ErrBadRequest, id, c.DS.Man.NumNodes)
	}
	return nil
}

// knownTails returns the set of entities d with a dataset edge
// (src, rel, d), scanned off the relation-carrying adjacency — the
// filter index for filtered top-k serving. The adjacency is immutable
// after Open, so this is safe from the dispatcher goroutine.
func (c *Context) knownTails(src, rel int32) map[int32]struct{} {
	nbrs, rels := c.Adj.OutNeighbors(src), c.Adj.OutRels(src)
	known := make(map[int32]struct{})
	for i, d := range nbrs {
		if rels[i] == rel {
			known[d] = struct{}{}
		}
	}
	return known
}
