package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/decoder"
	"repro/internal/obs"
	"repro/internal/sampler"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// ErrClosed is returned for requests arriving after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrOverloaded is returned for requests shed at a full dispatch queue;
// the HTTP layer maps it to 503 with a Retry-After header. Shedding at
// admission keeps the latency of accepted requests bounded under
// overload.
var ErrOverloaded = errors.New("serve: overloaded, request shed")

// ErrBadRequest marks client errors (wrong task, out-of-range IDs, empty
// batches); the HTTP layer maps it to 400.
var ErrBadRequest = errors.New("serve: bad request")

// PredictRequest asks for node-classification predictions. Seed, when
// nonzero, pins the neighborhood sampling seed — two requests with the
// same nodes and seed return byte-identical logits. With Seed zero the
// seed derives from the request content mixed with the server seed, so
// repeats of the same request are still deterministic.
type PredictRequest struct {
	Nodes []int32 `json:"nodes"`
	Seed  int64   `json:"seed,omitempty"`
}

// PredictResponse carries, per requested node, the argmax class and the
// full logit row.
type PredictResponse struct {
	Classes []int32     `json:"classes"`
	Logits  [][]float32 `json:"logits"`
}

// TopKRequest asks for the K highest-scoring tail entities for
// (Src, relation, ?) under the checkpoint's link-prediction model.
//
// The relation is named by either field below; both are pointers so the
// server can distinguish "relation 0" from "no relation named":
//
//   - Relation is the current field.
//   - Rel is the original single-relation-era field, kept so v1 clients
//     keep working unchanged.
//
// On a single-relation dataset an absent relation defaults to 0 (the v1
// request shape {"src":...,"k":...} still round-trips); on a
// multi-relation dataset it is a 400 (ErrBadRequest) — there is no safe
// default to score against. Naming both fields with different values is
// likewise a 400.
type TopKRequest struct {
	Src      int32  `json:"src"`
	Rel      *int32 `json:"rel,omitempty"`
	Relation *int32 `json:"relation,omitempty"`
	K        int    `json:"k"`
	// Filter removes known true tails — entities d with a training edge
	// (src, relation, d) — from the candidates, the serving analog of the
	// filtered ranking protocol: returned tails are novel predictions.
	Filter bool  `json:"filter,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
}

// TopKResponse lists tail entities in descending score order (ties broken
// by ascending entity ID). Relation echoes the resolved relation and
// Filtered whether known true tails were removed.
type TopKResponse struct {
	Nodes    []int32   `json:"nodes"`
	Scores   []float32 `json:"scores"`
	Relation int32     `json:"relation"`
	Filtered bool      `json:"filtered,omitempty"`
}

// call is one enqueued request awaiting its micro-batch. rel is the
// resolved relation of a top-k call (Relation/Rel precedence and
// single-relation defaulting applied at admission).
type call struct {
	pred *PredictRequest
	topk *TopKRequest
	rel  int32
	resp chan callResult
	enq  time.Time
}

type callResult struct {
	pred *PredictResponse
	topk *TopKResponse
	err  error
	wait time.Duration // time in queue, stamped by the dispatcher
}

// Server aggregates concurrent Predict/TopK calls through a bounded
// queue into micro-batches, each served against one pinned Snapshot. All
// exported methods are safe for concurrent use; the model forward runs
// on a single dispatcher goroutine, so batching — not goroutine fan-out
// — is the concurrency mechanism, mirroring a single-accelerator
// deployment.
type Server struct {
	ctx  *Context
	cfg  Config
	snap atomic.Pointer[Snapshot]

	reqs chan *call
	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	stats                   *stats
	reloads, reloadFailures *obs.Counter

	// Degraded-health tracking: reloadErr latches the last failed
	// reload's message (cleared by the next success); satConsec counts
	// consecutive dispatches that drained a full batch while the queue
	// stayed full; shedConsec counts requests shed since the last
	// successful admission (sustained shedding degrades /healthz).
	reloadErr  atomic.Pointer[string]
	satConsec  atomic.Int64
	shedConsec atomic.Int64

	tracer *obs.Tracer
}

// saturationThreshold is how many consecutive saturated dispatches
// (full micro-batch taken, queue still full) flip /healthz to
// degraded.
const saturationThreshold = 8

// shedThreshold is how many consecutive shed requests (none admitted in
// between) flip /healthz to degraded: brief bursts shed a few requests
// without alarming, sustained overload surfaces.
const shedThreshold = 8

// New starts a server over ctx serving snap.
func New(ctx *Context, snap *Snapshot, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		ctx:    ctx,
		cfg:    cfg,
		stats:  newStats(reg),
		reqs:   make(chan *call, cfg.QueueCap),
		quit:   make(chan struct{}),
		tracer: cfg.Tracer,
	}
	s.reloads = reg.Counter("serve_reloads_total", "Successful hot checkpoint reloads.")
	s.reloadFailures = reg.Counter("serve_reload_failures_total", "Failed hot checkpoint reloads.")
	reg.GaugeFunc("serve_queue_depth", "Requests waiting in the dispatch queue.",
		func() float64 { return float64(len(s.reqs)) })
	reg.GaugeFunc("serve_queue_capacity", "Dispatch queue capacity.",
		func() float64 { return float64(cap(s.reqs)) })
	reg.GaugeFunc("serve_healthy", "1 when /healthz reports ok, 0 when degraded.",
		func() float64 {
			if ok, _ := s.Health(); ok {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("serve_snapshot_loaded_timestamp_seconds", "Unix time the serving snapshot was loaded.",
		func() float64 { return float64(s.snap.Load().LoadedAt.Unix()) })
	reg.GaugeFunc("serve_snapshot_epoch", "Training epoch recorded in the serving checkpoint.",
		func() float64 { return float64(s.snap.Load().File.Epoch) })
	if ctx.featStats != nil {
		storage.RegisterStats(reg, "features", ctx.featStats)
	}
	s.snap.Store(snap)
	s.wg.Add(1)
	go s.dispatch()
	return s
}

// Metrics returns the server's metrics registry (serve counters and
// latency histograms, snapshot gauges, and — for disk-backed feature
// stores — storage IO counters), for Prometheus exposition.
func (s *Server) Metrics() *obs.Registry { return s.stats.reg }

// Health reports whether the server is healthy; when degraded, reason
// names the cause (last reload failed, or the dispatch queue has been
// saturated for saturationThreshold consecutive micro-batches).
func (s *Server) Health() (ok bool, reason string) {
	if msg := s.reloadErr.Load(); msg != nil {
		return false, "last reload failed: " + *msg
	}
	if n := s.satConsec.Load(); n >= saturationThreshold {
		return false, fmt.Sprintf("queue saturated for %d consecutive dispatches", n)
	}
	if n := s.shedConsec.Load(); n >= shedThreshold {
		return false, fmt.Sprintf("shedding load: %d consecutive requests rejected at a full queue", n)
	}
	return true, ""
}

// noteSaturation updates the consecutive-saturated-dispatch counter.
func (s *Server) noteSaturation(saturated bool) {
	if saturated {
		s.satConsec.Add(1)
	} else {
		s.satConsec.Store(0)
	}
}

// Snapshot returns the currently served snapshot.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Reload loads the checkpoint at path and atomically swaps it in.
// In-flight micro-batches finish on the snapshot they pinned; requests
// batched after the swap see the new one. Transient IO errors are
// absorbed below Load (ckpt.Read reads through the fault package's
// retrying transfer loop); on error the old snapshot keeps serving and
// /healthz degrades until a reload succeeds.
func (s *Server) Reload(path string) (*Snapshot, error) {
	snap, err := Load(s.ctx, path, s.cfg)
	if err != nil {
		msg := err.Error()
		s.reloadErr.Store(&msg)
		s.reloadFailures.Inc()
		return nil, err
	}
	s.snap.Store(snap)
	s.reloadErr.Store(nil)
	s.reloads.Inc()
	return snap, nil
}

// Close stops the dispatcher. Queued requests fail with ErrClosed.
func (s *Server) Close() {
	s.once.Do(func() { close(s.quit) })
	s.wg.Wait()
}

// Predict classifies req.Nodes, blocking until the micro-batch holding
// the request completes (or ctx is done).
func (s *Server) Predict(ctx context.Context, req *PredictRequest) (*PredictResponse, error) {
	if t := s.ctx.Task(); t != "nc" {
		return nil, fmt.Errorf("%w: predict serves node classification; dataset task is %q", ErrBadRequest, t)
	}
	if len(req.Nodes) == 0 {
		return nil, fmt.Errorf("%w: empty nodes", ErrBadRequest)
	}
	for _, id := range req.Nodes {
		if err := s.ctx.validNode(id); err != nil {
			return nil, err
		}
	}
	r, err := s.do(ctx, &call{pred: req})
	if err != nil {
		return nil, err
	}
	return r.pred, nil
}

// TopK scores (Src, relation, ?) against every entity and returns the K
// best tails, blocking until the micro-batch holding the request
// completes. See TopKRequest for how the relation is resolved.
func (s *Server) TopK(ctx context.Context, req *TopKRequest) (*TopKResponse, error) {
	if t := s.ctx.Task(); t != "lp" {
		return nil, fmt.Errorf("%w: topk serves link prediction; dataset task is %q", ErrBadRequest, t)
	}
	if err := s.ctx.validNode(req.Src); err != nil {
		return nil, err
	}
	rel, err := s.resolveRel(req)
	if err != nil {
		return nil, err
	}
	if req.K <= 0 {
		return nil, fmt.Errorf("%w: k must be positive", ErrBadRequest)
	}
	r, err := s.do(ctx, &call{topk: req, rel: rel})
	if err != nil {
		return nil, err
	}
	return r.topk, nil
}

// resolveRel applies the TopKRequest relation contract: Relation and Rel
// must agree when both are named; an absent relation defaults to 0 only
// on single-relation datasets; the result is range-checked against the
// dataset.
func (s *Server) resolveRel(req *TopKRequest) (int32, error) {
	rels := max(s.ctx.DS.Man.NumRels, 1)
	var rel int32
	switch {
	case req.Relation != nil && req.Rel != nil && *req.Relation != *req.Rel:
		return 0, fmt.Errorf("%w: relation %d conflicts with rel %d (name the relation once)",
			ErrBadRequest, *req.Relation, *req.Rel)
	case req.Relation != nil:
		rel = *req.Relation
	case req.Rel != nil:
		rel = *req.Rel
	case rels > 1:
		return 0, fmt.Errorf("%w: dataset has %d relation types; the request must name one (\"relation\")",
			ErrBadRequest, rels)
	}
	if rel < 0 || int(rel) >= rels {
		return 0, fmt.Errorf("%w: relation %d out of range [0,%d)", ErrBadRequest, rel, rels)
	}
	return rel, nil
}

// do admits a call (shedding immediately when the queue is full) and
// waits for its result under the configured per-request deadline.
func (s *Server) do(ctx context.Context, c *call) (callResult, error) {
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	c.resp = make(chan callResult, 1)
	c.enq = time.Now()
	select {
	case s.reqs <- c:
		s.shedConsec.Store(0)
	case <-s.quit:
		return callResult{}, ErrClosed
	default:
		// Full queue: fail fast rather than queue without bound, keeping
		// the latency of admitted requests bounded under overload.
		s.stats.shed.Inc()
		s.shedConsec.Add(1)
		return callResult{}, ErrOverloaded
	}
	select {
	case r := <-c.resp:
		s.stats.recordCall(r.wait, time.Since(c.enq), r.err != nil)
		return r, r.err
	case <-ctx.Done():
		// The dispatcher still completes the call into the buffered
		// channel; only this waiter gives up.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.stats.deadlines.Inc()
		}
		return callResult{}, ctx.Err()
	}
}

// dispatch is the single batching loop: block for the first request,
// collect co-batched ones until MaxBatch or MaxWait, pin one snapshot,
// run the batch.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		var first *call
		select {
		case first = <-s.reqs:
		case <-s.quit:
			s.drain()
			return
		}
		batch := append(make([]*call, 0, s.cfg.MaxBatch), first)
		timer := time.NewTimer(s.cfg.MaxWait)
	collect:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case c := <-s.reqs:
				batch = append(batch, c)
			case <-timer.C:
				break collect
			case <-s.quit:
				break collect
			}
		}
		timer.Stop()
		s.noteSaturation(len(batch) >= s.cfg.MaxBatch && len(s.reqs) >= cap(s.reqs))
		s.runBatch(batch)
	}
}

// drain fails every still-queued call after Close.
func (s *Server) drain() {
	for {
		select {
		case c := <-s.reqs:
			c.resp <- callResult{err: ErrClosed}
		default:
			return
		}
	}
}

// runBatch serves one micro-batch against one pinned snapshot. Predict
// and top-k calls in the same batch become one merged encode launch and
// one fused scoring launch respectively.
//
// A panic anywhere in the batch (a malformed snapshot, a kernel bug, an
// injected chaos hook) is contained here: the batch's requests fail
// with an error, serve_panics_recovered_total increments, and the
// dispatcher loop — and every other request — keeps running. Without
// this, one poisoned request would kill the process.
func (s *Server) runBatch(batch []*call) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.stats.panics.Inc()
		err := fmt.Errorf("serve: panic recovered while serving batch: %v", r)
		for _, c := range batch {
			// Non-blocking: calls the batch already answered before the
			// panic keep their response.
			select {
			case c.resp <- callResult{err: err}:
			default:
			}
		}
	}()
	if h := s.cfg.Hooks; h != nil && h.BeforeBatch != nil {
		h.BeforeBatch(len(batch))
	}
	snap := s.snap.Load()
	started := time.Now()
	wait := make(map[*call]time.Duration, len(batch))
	var preds, topks []*call
	for _, c := range batch {
		wait[c] = started.Sub(c.enq)
		if c.pred != nil {
			preds = append(preds, c)
		} else {
			topks = append(topks, c)
		}
	}
	var sampleT, encodeT, decodeT time.Duration
	if len(preds) > 0 {
		st, et, dt := s.runPredict(snap, preds, wait)
		sampleT, encodeT, decodeT = sampleT+st, encodeT+et, decodeT+dt
	}
	if len(topks) > 0 {
		st, et, dt := s.runTopK(snap, topks, wait)
		sampleT, encodeT, decodeT = sampleT+st, encodeT+et, decodeT+dt
	}
	s.stats.recordBatch(len(batch), sampleT, encodeT, decodeT)
	if s.tracer != nil {
		for _, c := range batch {
			s.tracer.Span("serve", "queue_wait", obs.TIDServe, c.enq, wait[c])
		}
		s.tracer.Span("serve", "sample", obs.TIDServe, started, sampleT)
		s.tracer.Span("serve", "encode", obs.TIDServe, started.Add(sampleT), encodeT)
		s.tracer.Span("serve", "decode", obs.TIDServe, started.Add(sampleT+encodeT), decodeT)
	}
}

// fail completes every call in group with err.
func fail(group []*call, wait map[*call]time.Duration, err error) {
	for _, c := range group {
		c.resp <- callResult{err: err, wait: wait[c]}
	}
}

// runPredict serves the node-classification half of a micro-batch: each
// request's (deduplicated) targets are sampled with that request's own
// seed, the per-request DENSE blocks are concatenated into one merged
// structure, and a single gather + encoder forward produces every
// request's logits. Per-request sampling seeds plus row-parallel kernels
// make each request's rows independent of its co-batch, so results equal
// the sequential single-request run bitwise.
func (s *Server) runPredict(snap *Snapshot, group []*call, wait map[*call]time.Duration) (sampleT, encodeT, decodeT time.Duration) {
	t0 := time.Now()
	type predPlan struct {
		uniq []int32 // first-occurrence order
		idx  []int32 // request position -> row within uniq
	}
	plans := make([]predPlan, len(group))
	blocks := make([]*sampler.DENSE, len(group))
	for i, c := range group {
		req := c.pred
		p := predPlan{idx: make([]int32, len(req.Nodes))}
		seen := make(map[int32]int32, len(req.Nodes))
		for j, id := range req.Nodes {
			row, ok := seen[id]
			if !ok {
				row = int32(len(p.uniq))
				seen[id] = row
				p.uniq = append(p.uniq, id)
			}
			p.idx[j] = row
		}
		plans[i] = p
		blocks[i] = snap.fwd.SampleSeeded(s.requestSeed(c), p.uniq)
	}
	merged := mergeDense(blocks)
	t1 := time.Now()
	sampleT = t1.Sub(t0)

	out, err := snap.fwd.EncodeDense(snap.Store, merged)
	if err != nil {
		fail(group, wait, err)
		for _, b := range blocks {
			snap.fwd.Recycle(b)
		}
		return sampleT, time.Since(t1), 0
	}
	t2 := time.Now()
	encodeT = t2.Sub(t1)

	logits := out.Value
	base := 0
	for i, c := range group {
		p := plans[i]
		resp := &PredictResponse{
			Classes: make([]int32, len(p.idx)),
			Logits:  make([][]float32, len(p.idx)),
		}
		for j, row := range p.idx {
			src := logits.Row(base + int(row))
			resp.Logits[j] = append([]float32(nil), src...)
			resp.Classes[j] = argmax(src)
		}
		base += len(p.uniq)
		c.resp <- callResult{pred: resp, wait: wait[c]}
	}
	// Recycle only after every response row was copied out: the blocks'
	// arrays (and, single-block case, the merged view of them) go back
	// to the sampler pool here.
	for _, b := range blocks {
		snap.fwd.Recycle(b)
	}
	return sampleT, encodeT, time.Since(t2)
}

// runTopK serves the link-prediction half of a micro-batch: fold each
// request's (source, relation) into the decoder's query vector (encoding
// sources through the GNN when the model has one), then score all
// entities for every request with a single fused gather-matmul against
// the snapshot's precomputed entity table — exactly the kernel
// evaluation's ranking protocol uses, one launch per micro-batch instead
// of one per request. Decoders with a norm completion (TransE) finish
// scores against the snapshot's cached entity norms.
func (s *Server) runTopK(snap *Snapshot, group []*call, wait map[*call]time.Duration) (sampleT, encodeT, decodeT time.Duration) {
	t0 := time.Now()
	dim := snap.Meta.Dim
	srcRows := tensor.New(len(group), dim)
	if snap.Encoder == nil {
		for i, c := range group {
			copy(srcRows.Data[i*dim:(i+1)*dim], snap.Table.Row(int(c.topk.Src)))
		}
	} else {
		blocks := make([]*sampler.DENSE, len(group))
		for i, c := range group {
			blocks[i] = snap.fwd.SampleSeeded(s.requestSeed(c), []int32{c.topk.Src})
		}
		merged := mergeDense(blocks)
		out, err := snap.fwd.EncodeDense(snap.Store, merged)
		if err != nil {
			fail(group, wait, err)
			for _, b := range blocks {
				snap.fwd.Recycle(b)
			}
			return time.Since(t0), 0, 0
		}
		// One target per block, so encoded row i belongs to call i.
		copy(srcRows.Data, out.Value.Data[:len(group)*dim])
		for _, b := range blocks {
			snap.fwd.Recycle(b)
		}
	}
	// Queries live in their own tensor: the fold reads source components
	// in decoder-specific order (ComplEx reads both halves per output
	// element), so it must not write over its input.
	queries := tensor.New(len(group), dim)
	var qn []float32
	if snap.Decoder.Norms() {
		qn = make([]float32, len(group))
	}
	for i, c := range group {
		snap.Decoder.TailQueryInto(queries.Row(i), srcRows.Row(i), snap.RelTable.Row(int(c.rel)))
		if qn != nil {
			qn[i] = decoder.SqNorm(queries.Row(i))
		}
	}
	t1 := time.Now()
	sampleT = t1.Sub(t0)

	var scores *tensor.Tensor
	if snap.EncQ != nil {
		scores = snap.cmp.GatherMatMulTBDequant(queries, snap.EncQ, s.ctx.allNodes)
	} else {
		scores = snap.cmp.GatherMatMulTB(queries, snap.EncTable, s.ctx.allNodes)
	}
	decoder.FinishScores(snap.Decoder, scores, qn, snap.EncNorms, s.ctx.allNodes)
	t2 := time.Now()
	encodeT = t2.Sub(t1)

	for i, c := range group {
		row := scores.Row(i)
		k := min(c.topk.K, len(row))
		var ids []int32
		if c.topk.Filter {
			known := s.ctx.knownTails(c.topk.Src, c.rel)
			ids = decoder.TopKSkip(row, k, func(id int32) bool {
				_, skip := known[id]
				return skip
			})
		} else {
			ids = decoder.TopK(row, k)
		}
		resp := &TopKResponse{
			Nodes: ids, Scores: make([]float32, len(ids)),
			Relation: c.rel, Filtered: c.topk.Filter,
		}
		for j, id := range ids {
			resp.Scores[j] = row[id]
		}
		c.resp <- callResult{topk: resp, wait: wait[c]}
	}
	return sampleT, encodeT, time.Since(t2)
}

// requestSeed derives a call's sampling seed: an explicit request seed
// wins; otherwise the seed is a content hash mixed with the server seed,
// so identical requests sample identical neighborhoods no matter when
// they arrive or what they are batched with.
func (s *Server) requestSeed(c *call) int64 {
	if c.pred != nil && c.pred.Seed != 0 {
		return c.pred.Seed
	}
	if c.topk != nil && c.topk.Seed != 0 {
		return c.topk.Seed
	}
	h := fnv.New64a()
	var b [8]byte
	if c.pred != nil {
		for _, id := range c.pred.Nodes {
			binary.LittleEndian.PutUint32(b[:4], uint32(id))
			h.Write(b[:4])
		}
	} else {
		// Hash the resolved relation: a v1 request naming rel R and a
		// current one naming relation R derive the same seed, so either
		// form samples the same neighborhood.
		binary.LittleEndian.PutUint32(b[:4], uint32(c.topk.Src))
		h.Write(b[:4])
		binary.LittleEndian.PutUint32(b[:4], uint32(c.rel))
		h.Write(b[:4])
	}
	return int64(h.Sum64()) ^ s.cfg.Seed
}

// argmax returns the index of the row maximum (first winner on ties).
func argmax(row []float32) int32 {
	best := 0
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			best = j
		}
	}
	return int32(best)
}

// mergeDense concatenates per-request DENSE blocks into one structure
// with the same invariants, delta group by delta group: merged group g
// is [blocks[0].Δg, blocks[1].Δg, ...], neighbor segments follow merged
// node order, and each block's ReprMap is remapped through its
// local-row → merged-row table. Forward output rows land contiguous per
// block in block order. Node IDs may repeat across blocks (two requests
// sampling the same node) — harmless to the gather/segment kernels, and
// exactly why the merged structure must never go through
// DENSE.Validate, which enforces training-batch uniqueness.
func mergeDense(blocks []*sampler.DENSE) *sampler.DENSE {
	if len(blocks) == 1 {
		return blocks[0]
	}
	k := blocks[0].Layers
	numGroups := k + 1
	var totalNodes, totalNbrs int
	for _, b := range blocks {
		totalNodes += len(b.NodeIDs)
		totalNbrs += len(b.Nbrs)
	}
	m := &sampler.DENSE{
		NodeIDOffsets: make([]int32, numGroups+1),
		NodeIDs:       make([]int32, 0, totalNodes),
		Nbrs:          make([]int32, 0, totalNbrs),
		ReprMap:       make([]int32, 0, totalNbrs),
		Layers:        k,
	}
	rowMaps := make([][]int32, len(blocks))
	for bi, b := range blocks {
		rowMaps[bi] = make([]int32, len(b.NodeIDs))
	}
	for g := 0; g < numGroups; g++ {
		m.NodeIDOffsets[g] = int32(len(m.NodeIDs))
		for bi, b := range blocks {
			for r := b.NodeIDOffsets[g]; r < b.NodeIDOffsets[g+1]; r++ {
				rowMaps[bi][r] = int32(len(m.NodeIDs))
				m.NodeIDs = append(m.NodeIDs, b.NodeIDs[r])
			}
		}
	}
	m.NodeIDOffsets[numGroups] = int32(len(m.NodeIDs))

	m.NbrOffsets = make([]int32, 0, len(m.NodeIDs)-int(m.NodeIDOffsets[1]))
	for g := 1; g < numGroups; g++ {
		for bi, b := range blocks {
			start := b.OutputStart()
			for r := int(b.NodeIDOffsets[g]); r < int(b.NodeIDOffsets[g+1]); r++ {
				segIdx := r - start
				lo := int(b.NbrOffsets[segIdx])
				hi := len(b.Nbrs)
				if segIdx+1 < len(b.NbrOffsets) {
					hi = int(b.NbrOffsets[segIdx+1])
				}
				m.NbrOffsets = append(m.NbrOffsets, int32(len(m.Nbrs)))
				m.Nbrs = append(m.Nbrs, b.Nbrs[lo:hi]...)
				for _, rm := range b.ReprMap[lo:hi] {
					m.ReprMap = append(m.ReprMap, rowMaps[bi][rm])
				}
			}
		}
	}
	return m
}
