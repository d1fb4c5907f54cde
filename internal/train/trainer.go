package train

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/decoder"
	"repro/internal/encode"
	"repro/internal/eval"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/sampler"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// Config configures training for either task.
type Config struct {
	// Encoder is the GNN encoder. For node classification its final
	// layer outputs the class logits; for link prediction nil trains a
	// decoder-only model (knowledge-graph embeddings, as Marius does).
	Encoder *gnn.Encoder
	Params  *nn.ParamSet
	// Decoder scores edges (link prediction only).
	Decoder decoder.Decoder

	Fanouts []int
	Dirs    graph.Directions

	BatchSize int
	// Negatives is the number of shared negatives per link-prediction
	// batch.
	Negatives int

	// Opt updates the dense parameters. EmbOpt, when non-nil, makes the
	// base representations learnable (link prediction): their gradients
	// are written back to the node store after every batch.
	Opt      nn.Optimizer
	EmbOpt   *nn.SparseAdaGrad
	ClipNorm float64

	// Workers is the number of batch-construction goroutines (also the
	// kernel fan-out of the compute stage). PipelineDepth is how many
	// visits the prefetcher loads ahead of the trainer; 0 (the default)
	// is the serial path. Both collapse to the synchronous single-worker
	// loop in ModeBaseline.
	Workers       int
	PipelineDepth int

	Mode Mode
	Seed int64

	// Obs, when non-nil, attaches metrics and trace spans to every
	// epoch. Purely additive: the training trajectory is identical with
	// it on or off.
	Obs *Obs
}

// task supplies the three things that differ between node
// classification and link prediction; the Trainer owns the rest of the
// mini-batch lifecycle.
type task interface {
	// examples collects visit v's training examples into v, shuffled by
	// vrng, and returns how many there are. Calls run in plan order on
	// one goroutine, and vi == 0 starts a new epoch.
	examples(t *Trainer, v *visit, pv *policy.Visit, vi int, vrng *rand.Rand) (int, error)
	// inputs fills pb's per-example fields for examples [lo, hi) of v and
	// returns the nodes the encoder must represent; seed is the batch's
	// derived seed.
	inputs(b *batcher, v *visit, pb *prepared, lo, hi int, seed int64) []int32
	// loss builds the batch loss on the encoded rows and returns it with
	// the batch's train metric (accuracy or MRR).
	loss(t *Trainer, params map[string]*tensor.Node, enc *tensor.Node, pb *prepared) (*tensor.Node, float64)
}

// Trainer drives training epochs of either task over a source and
// policy.
type Trainer struct {
	Cfg Config
	Src *Source
	Pol policy.Policy

	task  task
	epoch int

	// seg carries the incremental bucket-segmented visit index across
	// Load calls; each visit's view swaps only the changed partitions
	// instead of rebuilding the full in-memory adjacency. edgeBufs and
	// idBufs recycle the visits' example and node-list buffers.
	seg      segTracker
	edgeBufs slicePool[graph.Edge]
	idBufs   slicePool[int32]

	// batchers persist across epochs: worker w always uses batchers[w],
	// keeping its sampler and dedup workspaces warm. pbFree recycles
	// prepared batches after the compute stage consumes them.
	batchers []*batcher
	pbMu     sync.Mutex
	pbFree   []*prepared

	// The compute stage owns one arena and one tape, recycled every batch:
	// steady-state forward/backward allocates from the arena, not the heap.
	// Kernel parallelism follows Cfg.Workers (the marius.WithWorkers knob).
	arena *tensor.Arena
	tape  *tensor.Tape
	binds map[string]*tensor.Node
}

// newTrainer returns a trainer for tk with defaults applied (workers=4,
// serial pipeline depth 0).
func newTrainer(cfg Config, src *Source, pol policy.Policy, tk task) *Trainer {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.PipelineDepth < 0 {
		cfg.PipelineDepth = 0
	}
	if cfg.Mode == ModeBaseline {
		cfg.Workers = 1
		cfg.PipelineDepth = 0
	}
	t := &Trainer{Cfg: cfg, Src: src, Pol: pol, task: tk}
	t.batchers = make([]*batcher, cfg.Workers)
	t.arena = tensor.NewArena()
	t.tape = tensor.NewTapeWith(tensor.NewCompute(cfg.Workers, t.arena))
	return t
}

// Epoch returns the number of completed epochs.
func (t *Trainer) Epoch() int { return t.epoch }

// SetEpoch overrides the epoch counter, so a trainer restored from a
// checkpoint continues the epoch sequence (and its derived RNG stream)
// where the checkpointed run left off.
func (t *Trainer) SetEpoch(e int) { t.epoch = e }

// visit is a visit after the prefetch/load stage: incremental index
// refreshed, training examples collected and shuffled, per-batch seeds
// derived. The pooled buffers are recycled by Release.
type visit struct {
	n          int // training examples
	mem        []int
	adj        graph.Index
	edges      []graph.Edge // link prediction: the visit's training edges X_i
	pool       []int32      // link prediction: resident negative-sampling pool
	targets    []int32      // node classification: the visit's training nodes
	batchSeeds []int64
}

// prepared is a mini batch after the construction stage (Fig. 2 steps
// 1-3 minus representation gathering: the compute stage gathers base
// representations at consumption time, so a batch built ahead of its
// turn still sees every earlier batch's embedding update — pipelining
// introduces no staleness). The struct and its buffers are recycled
// through the trainer's free list; ids aliases the pooled DENSE's
// NodeIDs (or the batch's uniq buffer) until the batch is consumed.
type prepared struct {
	d   *sampler.DENSE
	ls  *sampler.LayeredSample
	smp *sampler.Sampler // owner of d, for recycling
	ids []int32          // rows of h0: DENSE NodeIDs / layered input nodes / unique targets
	n   int              // training examples in the batch

	labels                 []int32 // node classification
	uniq                   []int32 // link prediction: deduped endpoints and negatives
	srcIdx, dstIdx, negIdx []int32
	rels                   []int32

	nodesSampled int64
	edgesSampled int64
}

// freeBatchCap bounds the prepared-batch free list; the pipeline keeps
// at most Workers+Depth batches in flight.
const freeBatchCap = 32

// getPB returns a recycled prepared batch (or a fresh one).
func (t *Trainer) getPB() *prepared {
	t.pbMu.Lock()
	defer t.pbMu.Unlock()
	if n := len(t.pbFree); n > 0 {
		pb := t.pbFree[n-1]
		t.pbFree = t.pbFree[:n-1]
		return pb
	}
	return &prepared{}
}

// putPB recycles a consumed batch: the DENSE goes back to the sampler
// that built it and the struct (with its index buffers) to the trainer's
// free list.
func (t *Trainer) putPB(pb *prepared) {
	if pb.smp != nil {
		pb.smp.Recycle(pb.d)
	}
	pb.d, pb.ls, pb.smp, pb.ids = nil, nil, nil, nil
	t.pbMu.Lock()
	if len(t.pbFree) < freeBatchCap {
		t.pbFree = append(t.pbFree, pb)
	}
	t.pbMu.Unlock()
}

// TrainEpoch runs one epoch through the pipeline executor and returns
// its statistics, checking ctx between visits and batches for clean
// cancellation. The epoch counter only advances when the epoch
// completes: a canceled or failed epoch is retried from the same
// (seed, epoch)-derived RNG stream on the next call.
//
// Batches always compute in plan order with per-batch derived seeds, so
// the epoch's trajectory is identical at every PipelineDepth and Workers
// setting; concurrency only changes wall-clock overlap.
func (t *Trainer) TrainEpoch(ctx context.Context) (EpochStats, error) {
	epoch := t.epoch + 1
	stats := EpochStats{Epoch: epoch}
	if err := ctxErr(ctx); err != nil {
		return stats, err
	}
	var ioStart storage.StatsSnapshot
	if t.Src.Disk != nil {
		ioStart = t.Src.Disk.Stats().Snapshot()
	}
	start := time.Now()

	rng := epochRNG(t.Cfg.Seed, epoch)
	plan := t.Pol.NewEpochPlan(rng)
	stats.Visits = len(plan.Visits)
	seeds := visitSeeds(rng, len(plan.Visits))
	var sampleNS, computeNS atomic.Int64
	var lossSum float64
	metric := eval.MeanAccumulator{}

	depth := clampDepth(t.Cfg.PipelineDepth, plan, t.Src.Disk)
	pipelined := depth > 0
	la := policy.NewLookahead(plan)

	ep := pipeline.Epoch[*visit, *prepared]{
		NumVisits: len(plan.Visits),
		// Load runs in the prefetcher: async node-partition staging,
		// incremental index refresh (only the swapped partitions' bucket
		// fragments are built), example collection, shuffling and seed
		// derivation — everything except the buffer swap.
		Load: func(vi int) (*visit, error) {
			pv, _, _ := la.Next()
			if t.Src.Disk != nil && pipelined {
				// Stage this visit's partitions and those of the whole
				// lookahead window, so node IO for upcoming visits runs
				// while earlier visits compute.
				t.Src.Disk.Prefetch(pv.Mem)
				for _, nv := range la.NextK(depth) {
					t.Src.Disk.Prefetch(nv.Mem)
				}
			}
			adj, err := t.seg.refresh(t.Src, pv.Mem)
			if err != nil {
				return nil, err
			}
			v := &visit{mem: pv.Mem, adj: adj}
			vrng := rand.New(rand.NewSource(seeds[vi]))
			if v.n, err = t.task.examples(t, v, pv, vi, vrng); err != nil {
				return nil, err
			}
			v.batchSeeds = batchSeeds(vrng, (v.n+t.Cfg.BatchSize-1)/t.Cfg.BatchSize)
			return v, nil
		},
		Admit: func(vi int, v *visit) error {
			if t.Src.Disk == nil {
				return nil
			}
			if err := t.Src.Disk.LoadSet(v.mem); err != nil {
				return err
			}
			if !pipelined && vi+1 < len(plan.Visits) {
				t.Src.Disk.Prefetch(plan.Visits[vi+1].Mem)
			}
			return nil
		},
		NumBatches: func(v *visit) int { return len(v.batchSeeds) },
		Build: func(w int, v *visit, bi int) (*prepared, error) {
			b := t.batchers[w]
			if b == nil {
				b = &batcher{t: t}
				t.batchers[w] = b
			}
			s0 := time.Now()
			pb := b.prepare(v, bi)
			sampleNS.Add(time.Since(s0).Nanoseconds())
			return pb, nil
		},
		Compute: func(v *visit, bi int, pb *prepared) error {
			c0 := time.Now()
			loss, batchMetric, err := t.computeBatch(pb)
			computeNS.Add(time.Since(c0).Nanoseconds())
			if err != nil {
				return err
			}
			lossSum += loss
			metric.Add(batchMetric, float64(pb.n))
			stats.Batches++
			stats.Examples += pb.n
			stats.NodesSampled += pb.nodesSampled
			stats.EdgesSampled += pb.edgesSampled
			t.putPB(pb)
			return nil
		},
		Release: func(v *visit) {
			t.edgeBufs.put(v.edges)
			t.idBufs.put(v.pool)
			t.idBufs.put(v.targets)
			v.edges, v.pool, v.targets = nil, nil, nil
		},
	}
	err := pipeline.Run(ctx, pipeline.Config{Depth: depth, Workers: t.Cfg.Workers, Instr: t.Cfg.Obs.instr()}, ep, &stats.Pipeline)
	if err != nil {
		return stats, err
	}

	stats.Duration = time.Since(start)
	stats.Sample = time.Duration(sampleNS.Load())
	stats.Compute = time.Duration(computeNS.Load())
	if stats.Batches > 0 {
		stats.Loss = lossSum / float64(stats.Batches)
	}
	stats.Metric = metric.Mean()
	if t.Src.Disk != nil {
		stats.IO = t.Src.Disk.Stats().Snapshot().Sub(ioStart)
	}
	t.epoch = epoch
	t.Cfg.Obs.epochDone(&stats)
	return stats, nil
}

// batcher runs the batch-construction stage (Fig. 2 steps 1-3). Each
// pipeline worker owns one; its samplers are re-bound to the visit's
// adjacency and re-seeded per batch, so a batch's sample does not depend
// on which worker builds it. The negative buffer and the dedup table
// are reused across batches.
type batcher struct {
	t    *Trainer
	smp  *sampler.Sampler
	lsmp *sampler.LayeredSampler
	adj  graph.Index // adjacency the samplers are currently bound to

	neg  *sampler.NegativeSampler
	negs []int32
	ded  deduper
}

// bind points the batcher's samplers at the visit's adjacency, creating
// them on first use: the DENSE sampler, the layered sampler in
// ModeBaseline, or none for a decoder-only model.
func (b *batcher) bind(adj graph.Index) {
	t := b.t
	if b.adj == adj || t.Cfg.Encoder == nil {
		return
	}
	if t.Cfg.Mode == ModeBaseline {
		if b.lsmp == nil {
			b.lsmp = sampler.NewLayered(adj, t.Cfg.Fanouts, t.Cfg.Dirs, 0)
		}
		b.lsmp.Adj = adj
	} else {
		if b.smp == nil {
			b.smp = sampler.New(adj, t.Cfg.Fanouts, t.Cfg.Dirs, 0)
		}
		b.smp.Reset(adj)
	}
	b.adj = adj
}

// prepare builds mini batch bi of visit v: the task's inputs, then
// multi-hop sampling around them (base-representation gathering happens
// in the compute stage). The returned batch comes from the trainer's
// recycle pool and allocates nothing once capacities are warm.
func (b *batcher) prepare(v *visit, bi int) *prepared {
	t := b.t
	b.bind(v.adj)
	lo := bi * t.Cfg.BatchSize
	hi := min(lo+t.Cfg.BatchSize, v.n)

	pb := t.getPB()
	pb.n = hi - lo
	seed := v.batchSeeds[bi]
	roots := t.task.inputs(b, v, pb, lo, hi, seed)
	switch {
	case b.smp != nil:
		b.smp.Reseed(seed)
		d := b.smp.Sample(roots)
		pb.d, pb.smp = d, b.smp
		pb.ids = d.NodeIDs
		pb.nodesSampled = int64(len(d.NodeIDs))
		pb.edgesSampled = int64(len(d.Nbrs))
	case b.lsmp != nil:
		b.lsmp.Reseed(seed)
		ls := b.lsmp.Sample(roots)
		pb.ls = ls
		pb.ids = ls.Blocks[0].SrcNodes
		pb.nodesSampled = int64(ls.NumNodesSampled())
		pb.edgesSampled = int64(ls.NumEdgesSampled())
	default:
		pb.ids = roots
		pb.nodesSampled = int64(len(roots))
	}
	return pb
}

// computeBatch is the compute stage (Fig. 2 steps 4-6): gather current
// base representations, forward pass, the task's loss, backward, dense
// parameter update, and write-back of learnable representation updates.
// Gathering here (not at build time) keeps the pipelined trajectory
// identical to the serial one: batch k+1 always sees batch k's
// write-back.
func (t *Trainer) computeBatch(pb *prepared) (loss, metric float64, err error) {
	// Recycle the previous batch's tape nodes and arena buffers. Everything
	// the tape produces below is arena-owned and fully consumed (optimizer
	// step, representation write-back, loss, metric) before returning.
	tp := t.tape
	tp.Reset()
	t.arena.Reset()
	t.binds = t.Cfg.Params.BindInto(tp, t.binds)
	params := t.binds

	h0t := tp.Alloc(len(pb.ids), t.Src.Nodes.Dim())
	if err := t.Src.Nodes.Gather(pb.ids, h0t); err != nil {
		return 0, 0, err
	}
	h0 := tp.Leaf(h0t, t.Cfg.EmbOpt != nil)

	enc := encode.Apply(tp, params, t.Cfg.Encoder, pb.d, pb.ls, h0)
	lossNode, metric := t.task.loss(t, params, enc, pb)
	tp.Backward(lossNode)

	nn.Apply(t.Cfg.Opt, t.Cfg.Params, params, t.Cfg.ClipNorm)
	if g := h0.Grad(); g != nil {
		if err := t.Src.Nodes.ApplyGrads(pb.ids, g, t.Cfg.EmbOpt); err != nil {
			return 0, 0, err
		}
	}
	return float64(lossNode.Value.Data[0]), metric, nil
}
