// Command perfbench is the repository's end-to-end benchmark. It runs
// four workloads through the public marius API, prints every metric by
// name and unit, checks that the outputs are correct, and ends with one
// JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"setup_s": {"value": 0.03, "unit": "s"}, ...}}
//
// Run it from the repository root; run.sh builds it from the checkout's
// sources and keeps every build output and scratch file under
// .bench_build/:
//
//	bash perfbench/run.sh --workload lp-mem --seed 1 --seconds 20 --trace 0
//
// The seed is a benchmark argument: it generates the raw input files,
// and the program only ever sees those files (dataset.Export writes them,
// dataset.Ingest prepares them). The program runs at its own defaults
// (DefaultWorkers, GOMAXPROCS = the machine's CPU count); all load comes
// from this one process. --seconds sets how much work a run does: the
// number of training repeats, or the length of the serving load steps.
//
// # Workloads
//
// lp-mem: FB15k-237-shaped knowledge graph at 20% scale (2,908 entities,
// 47 relations, about 50k train edges), paper link prediction defaults
// (1-layer GraphSAGE, fanout 20, DistMult, dim 32, batch 1024, 500 shared
// negatives), in memory; one epoch per repeat, then the filtered
// both-sides ranking of the test edges. This is the paper's in-memory LP
// setting: negative scoring and softmax-CE take most of the CPU, there is
// one partition visit and no IO, so a kernel or decoder change shows here
// at full size and a storage or policy change should show nothing.
//
// lp-disk: Freebase86M-shaped knowledge graph cut to 6,000 entities
// (about 23k train edges, 16 relations, 5% test edges), same model, node
// embeddings on disk with 16 physical / 8 logical partitions, a
// 4-partition buffer throttled to 3 MB/s, COMET ordering and a 2-visit
// prefetch pipeline; one epoch per repeat. This is the paper's
// out-of-core claim: 33 visits per epoch, embeddings written back to
// disk, IO wait comparable to compute, so overlap and IO-volume changes
// show here.
//
// nc-disk: Papers100M-shaped SBM (gen.DefaultSBM(100000): 1.6M edges,
// 64-dim features, 5% train and 5% test nodes), 3-layer GraphSAGE
// with fanouts 30/20/10, features on disk (16 partitions, 4-partition
// buffer), 2-visit pipeline; three epochs per repeat, then test accuracy.
// DENSE multi-hop sampling and the GNN layers do the work; the decoder
// does none and storage only reads features. A negative-scoring change
// should show nothing here, a sampler or GNN change should.
//
// lp-serve: the lp-mem input, prepared and served by LoadForInference
// from a checkpoint trained for one epoch (off the clock). TopK requests
// (k=10, one per test edge in a seeded order, half filtered) come from
// one process: an open loop at a fixed reference rate, timing each
// request from when it was due and printing how late the generator ran,
// and a closed loop of callers that each wait for their answer. The
// server runs at its defaults (ServeConfig{}: micro-batches of up to 32,
// a queue of 128); the closed loop keeps 64 callers in flight, enough to
// fill every batch without overflowing the queue, and the run checks
// from the server's batch-size histogram that the cap is still 32. On
// the traced run's rate ladder, a rate past saturation overflows the
// queue and the server sheds requests: that fails the rung, and the
// shed requests are counted as shed, not as failed operations. This is
// the only workload where requests arrive independently, so
// micro-batching and queueing show only here; the decoder scores every
// entity, forward only, without negatives, so a training-only kernel
// change should show nothing here.
//
// The sizes are cut from the paper's so that a run takes about 20
// seconds on a 2-core machine while each workload still spends its time
// where the full-size run does.
//
// # End-to-end metrics
//
// Every untraced run reports the same two gated metrics:
//
//	metric   unit  lp-mem, lp-disk, nc-disk                         lp-serve
//	setup_s  s     process CPU time of one set-up (raw files ->     the same for raw files -> Ingest ->
//	               Ingest -> FromDataset), median of back-to-back   LoadForInference (median of 11)
//	               set-ups (11 for LP, 5 for NC)
//	cpu_ms   ms    process CPU time (user + system) per epoch       process CPU time per answer under
//	                                                                saturation (64 callers)
//
// Both are CPU times: the cost side of the paper's resource-efficiency
// claim, and the only timings that hold still on a shared virtual
// machine. There the host steals CPU from the guest for minutes at a
// time, and two sets of runs of the same code differed by 26-28% in
// median wall-clock epoch time and set-up time, more than any useful
// bound allows; the kernel does not charge a process for stolen time.
// The serving numbers pool four slices of each load, interleaved, so a
// stall lands in one slice.
//
// Printed on every run but not gated: the wall-clock latencies a user
// waits for (epoch time, and the serving p50 and tail at 250
// requests/s, reported per layer as train.epoch_s, serve.p50_ms and
// serve.p99_ms), for the reason above; the evaluation throughput
// (ranking queries or test nodes per second) and the saturated serving
// rate, wall-clock rates with the same problem; the retained Go heap
// (steady on lp-mem and lp-serve, but 30-100 MB apart between runs on
// the disk workloads, where prefetched buffers may or may not still be
// held when the heap is read); quality (filtered Hits@10, MRR,
// accuracy, served Hits@10), which follows the graph; the last epoch's
// loss; and the highest open-loop rate meeting the serving objective.
//
// The serving objective is a tail latency of at most 50 ms, taken at the
// highest percentile with at least 10 samples beyond it (p99 from 1,000
// samples), no failed request (a failed request counts as missing the
// limit), and no growing backlog. The traced run walks a fixed geometric
// ladder of open-loop rates with two bisection steps to find the highest
// rate meeting it (serve.max_rps).
//
// # Correctness
//
// A training run repeats ingest -> open -> train -> evaluate -> save at
// least twice; every repeat must give the same per-epoch losses, the same
// test metrics and the same checkpoint bytes (the bit-reproducibility
// contract), losses must be finite and positive and the test metric in
// (0, 1]. lp-serve records the answers to probe requests taken under
// load and compares them byte for byte with the same requests served one
// at a time afterwards, and its served Hits@10 must be in (0, 1]. Any
// mismatch makes the run report correct=false and exit 1. attempted
// counts set-ups, epochs, evaluations and saves, or requests sent; failed
// counts failed operations plus IO operations the storage layer gave up
// on (EpochStats.IO.Gaveup); retries are printed in the failure record.
//
// # Traced run
//
// --trace 1 runs a separate, instrumented variant that reports the
// per-layer metrics instead. A training workload makes one plain repeat
// and one traced repeat; the traced one wraps the session's node store
// (Gather, ApplyGrads) and edge store (ReadBucket) with timing spans,
// attaches WithMetrics and WithTrace, and CPU-profiles the training
// epochs. lp-serve runs the reference rate plain, then the rate ladder,
// then the reference rate again on a second server with the program's
// tracer attached, then a CPU profile of 64 saturating callers on that
// server (under the light reference load Go's profiler recorded as
// little as a tenth of the process's CPU time; under saturation it
// records all of it, and each traced run prints both figures). Spans (name, start, end, parent:
// epoch -> gather / apply_grads / edge_read) stay in memory and are
// written to spans.json beside the program's Chrome trace (trace.json)
// and the profile (cpu.pprof) in the run's directory under
// .bench_build/work. The tracing overhead is the traced epoch time (or
// p50) over the plain one, minus 1.
//
// Two self-checks are printed, reported as metrics, and fail the run
// (correct=false) when they do not hold: the compute lane's load_wait +
// batch_wait + compute must explain the epoch wall time within 15%
// (check.compute_lane_gap), and on lp-mem negative scoring plus
// softmax-CE must be the largest cpu.* share with sampling under 5%
// (check.profile_agrees).
//
// The cpu.* shares attribute each profile sample to its leaf function
// with `go tool pprof -top` (see familyRules). The negatives' gradient
// and a dense layer's weight gradient both run in matmulTARange on pool
// goroutines whose stacks do not name the caller; they count as
// negscore_bwd when the profile contains the negative-scoring forward
// kernel and as dense_matmul otherwise. Serving scores every entity with
// the same forward kernel, so lp-serve shows it as negscore_fwd.
//
// # Layers and the end-to-end figure each should move
//
// "epoch time" is the wall-clock epoch time every training run prints;
// a change that moves it should move cpu_ms too unless it only changes
// waiting (IO overlap, throttled reads), which shows in the
// pipeline.*_wait_s and storage.* figures of the traced run.
//
//	per-layer metric                       measured from outside via                        moves             most work in / little in
//	dataset.ingest_s, dataset.spill_runs   the dataset.Ingest call and its Stats            setup_s           nc-disk / lp-mem
//	storage.read_mb, write_mb, swaps,      EpochStats.IO                                    epoch time        lp-disk / lp-mem (zero)
//	  prefetch_hit_ratio, retries, gaveup
//	storage.gather_s, apply_grads_s        wrapper on Source().Nodes                        epoch time        lp-disk, lp-mem / nc-disk (no apply_grads)
//	storage.edge_read_s                    wrapper on Source().Edges.ReadBucket             epoch time via    lp-disk / lp-mem
//	                                                                                        pipeline.load_s
//	policy.visits                          EpochStats.Visits                                storage.read_mb   lp-disk / lp-mem, nc-disk (1 visit)
//	pipeline.load_s, build_s, compute_s    pipeline_*_seconds sums in the WithMetrics       epoch time        all
//	                                       registry
//	pipeline.load_wait_s                   EpochStats.Pipeline.LoadWait                     epoch time        lp-disk / lp-mem
//	pipeline.batch_wait_s                  EpochStats.Pipeline.BatchWait                    epoch time        nc-disk / lp-mem
//	sampler.busy_s, nodes_per_batch,       EpochStats.Sample, NodesSampled, EdgesSampled    epoch time        nc-disk / lp-mem
//	  edges_per_batch
//	train.epoch_s, train.loss              EpochStats.Duration and Loss                     epoch time        all
//	train.compute_ms_per_batch, fwd_bwd_s  EpochStats.Compute; fwd_bwd = Compute minus      epoch time        lp-mem / none
//	                                       gather and apply_grads
//	train.unwrapped_s                      epoch span time no wrapper span covers           epoch time        all
//	cpu.negscore_fwd, negscore_bwd,        CPU profile shares                               cpu_ms            lp-mem / nc-disk (zero)
//	  softmax_ce
//	cpu.dense_matmul, gather_segment,      CPU profile shares                               cpu_ms            nc-disk / lp-mem
//	  sampler, storage, optimizer, gc,
//	  other
//	cpu.topk_sort                          CPU profile share                                cpu_ms            lp-serve / training
//	eval.s, queries_per_s, candidates_per_s the timed Session.Evaluate call and its         evaluation time   lp-mem / none
//	                                       query count
//	eval.quality, eval.mrr                 EvalResult (Hits@10 or accuracy, MRR);           none (a speed-up  all
//	                                       served answers on lp-serve                       must not move it)
//	mem.live_heap_mb                       live heap after a forced GC once the timed       none              nc-disk / lp-serve
//	                                       phase is over (after evaluation or the load)
//	serve.queue_wait_ms_p50/_p99,          the server's Metrics() registry and Statz        serve p50/p99,    lp-serve / none
//	  decode_ms, batch_size_mean, shed,                                                     cpu_ms
//	  deadline_expired
//	serve.generator_late_ms, p50_ms,       the benchmark's own load generator               serve p50/p99     lp-serve / none
//	  p99_ms, max_rps
//
// # Older gates
//
// The eight cmd/bench* commands and the seven BENCH_*.json baselines are
// left untouched; folding them into this harness is ROADMAP item 4.
package main
