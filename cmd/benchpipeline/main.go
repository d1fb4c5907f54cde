// Command benchpipeline measures the pipelined out-of-core epoch
// executor against the serial epoch loop on a throttled on-disk dataset
// and emits BENCH_pipeline.json, the repo's pipeline performance
// baseline.
//
//	make bench-pipeline                 # CI: -short -check, report to /tmp
//	go run ./cmd/benchpipeline -check   # full size: the checked-in baseline
//
// The disk bandwidth is auto-calibrated: an unthrottled run measures the
// epoch's pure compute time and per-epoch IO volume, then the throttle
// is set so one epoch's IO takes about as long as its compute — the
// balanced regime where overlap matters most (paper §7: EBS-like
// bandwidth against GPU-saturating compute). Training runs the COMET
// policy (the paper's LP default), whose deferred bucket assignment
// spreads edge IO across visits; every configuration runs one unmeasured
// warm-up epoch so steady-state epochs are compared (the fragment cache
// makes first epochs cheaper for everyone but cold for no one).
//
// An instrumentation probe repeats the pipelined configuration
// unthrottled, with and without full observability attached (metrics
// registry + Chrome-trace span file), in ABBA order. A quantized section
// trains serial out-of-core NC from float32- and fp16-prepared copies of
// one graph under one shared throttle.
//
// -check gates:
//
//   - the pipelined run is at least 1.5x faster per epoch than the
//     serial loop, and at least 1.2x faster than depth 0 at the same
//     worker count (kernel fan-out alone cannot pass);
//   - its losses equal the serial trajectory bit for bit (the
//     equivalence contract), and the prefetcher hit at least once;
//   - the deterministic instrumentation hot-path bound (per-primitive
//     cost times the epoch's actual operation counts) stays within 2% of
//     the fastest plain epoch, and instrumentation leaves the losses
//     untouched;
//   - fp16 node-partition IO is under 0.7x float32's, and the fp16
//     serial epoch's IO share is at least 0.03 below float32's.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/benchkit"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/marius"
)

// Report is the schema of BENCH_pipeline.json.
type Report struct {
	benchkit.Header
	Config     Config  `json:"config"`
	Calib      Calib   `json:"calibration"`
	Serial     RunStat `json:"serial"`
	NoPrefetch RunStat `json:"no_prefetch"`
	Pipelined  RunStat `json:"pipelined"`
	// ProbePlain/ProbeInstrumented are the overhead probe: the pipelined
	// configuration rerun unthrottled (compute-bound, so epoch times
	// aren't dominated by throttle-pacing jitter), without and with a
	// metrics registry + span tracer attached. Each side is the
	// best-timed of two interleaved runs.
	ProbePlain        RunStat      `json:"probe_plain"`
	ProbeInstrumented RunStat      `json:"probe_instrumented"`
	Summary           Summary      `json:"summary"`
	Quant             QuantSection `json:"quantized_nc"`
}

// QuantSection compares out-of-core node-classification training from a
// float32-prepared dataset against the same graph prepared with
// -quantize=fp16, under one shared throttle calibrated on the float32
// run: compressed feature partitions move half the bytes per swap, so
// the serial epoch's IO share must drop measurably.
type QuantSection struct {
	Nodes        int      `json:"nodes"`
	FeatureDim   int      `json:"feature_dim"`
	Partitions   int      `json:"partitions"`
	Capacity     int      `json:"capacity"`
	Epochs       int      `json:"epochs"`
	ThrottleMBps float64  `json:"throttle_mbps"`
	Float32      QuantRun `json:"float32"`
	FP16         QuantRun `json:"fp16"`
	// NodeIORatio is fp16 node-partition bytes over float32's — the
	// direct measure of the storage win (edge traffic is identical).
	NodeIORatio float64 `json:"node_io_ratio_fp16_vs_float32"`
}

// QuantRun is one prepared-dataset variant's serial throttled run.
type QuantRun struct {
	EpochSec   []float64 `json:"epoch_sec"`
	TotalSec   float64   `json:"total_sec"`
	Loss       []float64 `json:"loss"`
	ComputeSec float64   `json:"unthrottled_epoch_sec"`
	NodeIOMB   float64   `json:"node_io_mb_per_epoch"`
	TotalIOMB  float64   `json:"total_io_mb_per_epoch"`
	// IOShare is the fraction of a throttled serial epoch spent moving
	// bytes: throttle-paced IO time over IO + compute. The IO time is
	// derived from the exact byte counters and the throttle rate (the
	// pacing is deterministic), so the share doesn't inherit wall-clock
	// jitter from the sub-second CI epochs.
	IOShare float64 `json:"io_share"`
}

// Config records the benchmark workload.
type Config struct {
	Entities   int `json:"entities"`
	Edges      int `json:"edges"`
	Dim        int `json:"dim"`
	Partitions int `json:"partitions"`
	Capacity   int `json:"capacity"`
	BatchSize  int `json:"batch_size"`
	Negatives  int `json:"negatives"`
	Epochs     int `json:"epochs"`
	Depth      int `json:"pipeline_depth"`
	Workers    int `json:"workers"`
}

// Calib records the auto-calibrated throttle.
type Calib struct {
	UnthrottledEpochSec float64 `json:"unthrottled_epoch_sec"`
	BytesPerEpoch       int64   `json:"bytes_per_epoch"`
	ThrottleMBps        float64 `json:"throttle_mbps"`
}

// RunStat records one configuration's measured epochs.
type RunStat struct {
	EpochSec       []float64 `json:"epoch_sec"`
	TotalSec       float64   `json:"total_sec"`
	Loss           []float64 `json:"loss"`
	Visits         int       `json:"visits"`
	Batches        int       `json:"batches"`
	IOReadMB       float64   `json:"io_read_mb"`
	IOWriteMB      float64   `json:"io_write_mb"`
	PrefetchHits   int64     `json:"prefetch_hits"`
	PrefetchMisses int64     `json:"prefetch_misses"`
	LoadWaitSec    float64   `json:"load_wait_sec"`
	BatchWaitSec   float64   `json:"batch_wait_sec"`
}

// Summary is what -check gates on.
type Summary struct {
	Speedup float64 `json:"epoch_speedup_pipelined_vs_serial"`
	// PrefetchSpeedup isolates the prefetcher: pipelined vs the same
	// worker count at depth 0, so kernel/build fan-out alone (which also
	// speeds the depth-0 run on multi-core machines) cannot satisfy the
	// gate with a broken prefetcher.
	PrefetchSpeedup float64 `json:"epoch_speedup_pipelined_vs_no_prefetch"`
	LossesMatch     bool    `json:"losses_match_serial"`
	PrefetchHit     float64 `json:"prefetch_hit_rate"`
	ComputeSec      float64 `json:"serial_compute_sec"`
	SerialIOShare   float64 `json:"serial_io_share"`
	// InstrOverhead is the instrumented probe's fastest epoch over the
	// plain probe's fastest epoch, minus one. Informational only: on a
	// shared machine, run-to-run epoch drift (±10% observed) swamps the
	// real instrumentation cost, so -check does not gate on it.
	InstrOverhead float64 `json:"instrumentation_overhead_wallclock"`
	// InstrHotPath is the gated overhead bound: per-operation costs of
	// the instrumentation primitives (histogram observe, counter inc,
	// gauge set, span write, clock read) measured in a tight loop, times
	// the probe run's actual per-epoch hot-path operation counts, over
	// the fastest plain epoch. Deterministic where wall-clock diffing is
	// not; -check enforces <= 2%.
	InstrHotPath float64 `json:"instrumentation_hot_path_overhead"`
	// InstrLossesMatch asserts observability never perturbs training:
	// the instrumented trajectory equals the plain one.
	InstrLossesMatch bool `json:"losses_match_instrumented"`
}

func main() {
	run := benchkit.New("pipeline", "enforce acceptance floors (>=1.5x epoch speedup, loss equivalence)")
	depth := flag.Int("depth", 4, "pipeline depth for the pipelined run")
	workers := flag.Int("workers", 4, "workers for the pipelined run")
	epochs := flag.Int("epochs", 2, "measured epochs per configuration")
	balance := flag.Float64("balance", 0.9, "target IO-time/compute-time ratio for the throttle")
	flag.Parse()

	// IO-heavy shape: each epoch's throttled volume is the training-example
	// bucket reads plus node-partition staging and write-back. (Adjacency
	// construction no longer re-reads resident buckets — the fragment
	// cache serves it — so every configuration runs one unmeasured warm-up
	// epoch and the benchmark compares steady-state epochs.)
	cfg := Config{
		Entities: 12000, Edges: 400000, Dim: 16,
		Partitions: 8, Capacity: 4,
		BatchSize: 1024, Negatives: 250,
		Epochs: *epochs, Depth: *depth, Workers: *workers,
	}
	if run.Short {
		cfg.Entities, cfg.Edges = 2500, 200000
	}

	// Calibration: unthrottled serial run — its epoch time is the pure
	// compute cost, its IO counters the per-epoch volume.
	fmt.Printf("calibrating (unthrottled serial epoch)...\n")
	calibStat, err := runConfig(cfg, nil, 0, 1, 1, false)
	benchkit.Must(err)
	bytesPerEpoch := int64((calibStat.IOReadMB + calibStat.IOWriteMB) * 1e6)
	computeSec := calibStat.EpochSec[0]
	// One epoch's IO takes balance × its compute time: at 1.0 the
	// prefetcher has zero slack and any jitter stalls the trainer, so a
	// slightly faster disk gives the pipeline headroom while keeping the
	// serial loop IO-bound enough to measure the overlap.
	mbps := float64(bytesPerEpoch) / 1e6 / (computeSec * *balance)
	calib := Calib{
		UnthrottledEpochSec: benchkit.Round(computeSec, 3),
		BytesPerEpoch:       bytesPerEpoch,
		ThrottleMBps:        benchkit.Round(mbps, 3),
	}
	fmt.Printf("  compute %.2fs/epoch, %.1f MB/epoch -> throttle %.1f MB/s\n",
		computeSec, float64(bytesPerEpoch)/1e6, mbps)

	fmt.Printf("serial (depth=0, workers=1, throttled)...\n")
	serial, err := runConfig(cfg, storage.NewThrottle(mbps*1e6), 0, 1, cfg.Epochs, false)
	benchkit.Must(err)
	fmt.Printf("  epochs %v  total %.2fs\n", serial.EpochSec, serial.TotalSec)

	fmt.Printf("no-prefetch (depth=0, workers=%d, throttled)...\n", cfg.Workers)
	noPrefetch, err := runConfig(cfg, storage.NewThrottle(mbps*1e6), 0, cfg.Workers, cfg.Epochs, false)
	benchkit.Must(err)
	fmt.Printf("  epochs %v  total %.2fs\n", noPrefetch.EpochSec, noPrefetch.TotalSec)

	fmt.Printf("pipelined (depth=%d, workers=%d, throttled)...\n", cfg.Depth, cfg.Workers)
	pipelined, err := runConfig(cfg, storage.NewThrottle(mbps*1e6), cfg.Depth, cfg.Workers, cfg.Epochs, false)
	benchkit.Must(err)
	fmt.Printf("  epochs %v  total %.2fs  load-wait %.2fs  prefetch %d/%d hit\n",
		pipelined.EpochSec, pipelined.TotalSec, pipelined.LoadWaitSec,
		pipelined.PrefetchHits, pipelined.PrefetchHits+pipelined.PrefetchMisses)

	fmt.Printf("instrumentation probe (depth=%d, workers=%d, unthrottled, plain vs metrics+trace)...\n",
		cfg.Depth, cfg.Workers)
	var probePlain, probeInstr RunStat
	// ABBA order: machine drift across the four runs (thermal, noisy
	// neighbors) hits both sides symmetrically instead of always taxing
	// whichever side runs second.
	for _, instr := range []bool{false, true, true, false} {
		st, err := runConfig(cfg, nil, cfg.Depth, cfg.Workers, cfg.Epochs, instr)
		benchkit.Must(err)
		dst := &probePlain
		if instr {
			dst = &probeInstr
		}
		if len(dst.EpochSec) == 0 || minOf(st.EpochSec) < minOf(dst.EpochSec) {
			*dst = st
		}
	}
	instrOverhead := minOf(probeInstr.EpochSec)/minOf(probePlain.EpochSec) - 1
	instrLossesMatch := benchkit.SameBits(probeInstr.Loss, probePlain.Loss)
	instrHotPath := microOverhead(probeInstr.Batches/cfg.Epochs, probeInstr.Visits/cfg.Epochs,
		minOf(probePlain.EpochSec))
	fmt.Printf("  plain %v  instrumented %v  wall-clock %+.1f%%  hot-path bound %.3f%%  losses match = %v\n",
		probePlain.EpochSec, probeInstr.EpochSec, 100*instrOverhead, 100*instrHotPath, instrLossesMatch)

	lossesMatch := benchkit.SameBits(serial.Loss, pipelined.Loss)
	speedup := serial.TotalSec / pipelined.TotalSec
	prefetchSpeedup := noPrefetch.TotalSec / pipelined.TotalSec
	hitRate := 0.0
	if tot := pipelined.PrefetchHits + pipelined.PrefetchMisses; tot > 0 {
		hitRate = float64(pipelined.PrefetchHits) / float64(tot)
	}
	ioShare := 0.0
	if serial.TotalSec > 0 {
		ioShare = (serial.TotalSec - float64(cfg.Epochs)*computeSec) / serial.TotalSec
	}

	quant, err := quantSection(run.Short, *epochs, *balance)
	benchkit.Must(err)

	rep := Report{
		Header:            run.Header(),
		Config:            cfg,
		Calib:             calib,
		Serial:            serial,
		NoPrefetch:        noPrefetch,
		Pipelined:         pipelined,
		ProbePlain:        probePlain,
		ProbeInstrumented: probeInstr,
		Summary: Summary{
			Speedup:          benchkit.Round(speedup, 3),
			PrefetchSpeedup:  benchkit.Round(prefetchSpeedup, 3),
			LossesMatch:      lossesMatch,
			PrefetchHit:      benchkit.Round(hitRate, 3),
			ComputeSec:       benchkit.Round(computeSec, 3),
			SerialIOShare:    benchkit.Round(ioShare, 3),
			InstrOverhead:    benchkit.Round(instrOverhead, 3),
			InstrHotPath:     instrHotPath,
			InstrLossesMatch: instrLossesMatch,
		},
		Quant: quant,
	}
	run.Write(&rep)
	fmt.Printf("\nwrote %s: %.2fx epoch speedup (%.2fx vs no-prefetch), losses match = %v\n",
		run.Out, speedup, prefetchSpeedup, lossesMatch)

	run.Gate(speedup >= 1.5, "pipelined epoch speedup %.2fx < 1.5x serial", speedup)
	run.Gate(prefetchSpeedup >= 1.2, "pipelined epoch speedup %.2fx < 1.2x over depth-0 at the same worker count — the prefetcher is not overlapping IO", prefetchSpeedup)
	run.Gate(lossesMatch, "pipelined losses %v diverge from serial %v — equivalence contract broken", pipelined.Loss, serial.Loss)
	run.Gate(pipelined.PrefetchHits > 0, "prefetcher never hit")
	run.Gate(instrHotPath <= 0.02, "instrumentation hot-path overhead %.2f%% exceeds the 2%% ceiling", 100*instrHotPath)
	run.Gate(instrLossesMatch, "instrumented losses %v diverge from plain pipelined %v — observability perturbed training",
		probeInstr.Loss, probePlain.Loss)
	// fp16 halves the feature bytes; with edge traffic on top the
	// node-partition volume must land well under float32's, and the
	// epoch's unhidden-IO share must drop measurably with it.
	run.Gate(quant.NodeIORatio < 0.7, "fp16 node-partition IO is %.2fx float32's, want < 0.7x", quant.NodeIORatio)
	run.Gate(quant.FP16.IOShare <= quant.Float32.IOShare-0.03, "fp16 serial IO share %.2f not measurably below float32's %.2f",
		quant.FP16.IOShare, quant.Float32.IOShare)
	run.Done()
}

// quantSection prepares the same SBM graph twice — float32 and fp16 —
// and measures throttled serial out-of-core epochs from each. The
// throttle is calibrated on the float32 variant and shared, so the only
// difference between the runs is how many bytes each partition swap
// moves.
func quantSection(short bool, epochs int, balance float64) (QuantSection, error) {
	qs := QuantSection{Nodes: 12000, FeatureDim: 128, Partitions: 8, Capacity: 4, Epochs: epochs}
	if short {
		qs.Nodes = 3000
	}
	g := gen.SBM(gen.SBMConfig{
		NumNodes: qs.Nodes, NumClasses: 10, AvgDegree: 12, FeatureDim: qs.FeatureDim,
		Homophily: 0.8, FeatNoise: 1.0,
		TrainFrac: 0.5, ValidFrac: 0.05, TestFrac: 0.05, Seed: 7,
	})
	expDir, err := os.MkdirTemp("", "benchquant-export")
	if err != nil {
		return qs, err
	}
	defer os.RemoveAll(expDir)
	exp, err := dataset.Export(g, expDir, "bin")
	if err != nil {
		return qs, err
	}
	dirs := map[string]string{}
	for _, mode := range []string{"", "fp16"} {
		dir, err := os.MkdirTemp("", "benchquant-data")
		if err != nil {
			return qs, err
		}
		defer os.RemoveAll(dir)
		icfg := exp.Config(dir, "nc", 7, qs.Partitions)
		icfg.Quantize = mode
		if _, err := dataset.Ingest(icfg); err != nil {
			return qs, fmt.Errorf("quant section ingest(%q): %v", mode, err)
		}
		dirs[mode] = dir
	}

	// Calibration: unthrottled serial epochs per variant give each its
	// pure compute time; the float32 volume sets the shared throttle.
	fmt.Printf("quantized-nc: calibrating (unthrottled serial, float32 + fp16)...\n")
	calibF32, err := runNC(dirs[""], qs.Capacity, nil, 1)
	if err != nil {
		return qs, err
	}
	calibF16, err := runNC(dirs["fp16"], qs.Capacity, nil, 1)
	if err != nil {
		return qs, err
	}
	mbps := calibF32.TotalIOMB / (calibF32.EpochSec[0] * balance)
	qs.ThrottleMBps = benchkit.Round(mbps, 3)
	fmt.Printf("  float32 compute %.2fs/epoch, %.1f MB/epoch -> throttle %.1f MB/s\n",
		calibF32.EpochSec[0], calibF32.TotalIOMB, mbps)

	for _, v := range []struct {
		mode  string
		calib QuantRun
		dst   *QuantRun
	}{
		{"", calibF32, &qs.Float32},
		{"fp16", calibF16, &qs.FP16},
	} {
		name := v.mode
		if name == "" {
			name = "float32"
		}
		fmt.Printf("quantized-nc: %s (serial, throttled)...\n", name)
		run, err := runNC(dirs[v.mode], qs.Capacity, storage.NewThrottle(mbps*1e6), epochs)
		if err != nil {
			return qs, err
		}
		run.ComputeSec = v.calib.EpochSec[0]
		if ioSec := run.TotalIOMB / mbps; ioSec > 0 {
			run.IOShare = benchkit.Round(ioSec/(ioSec+run.ComputeSec), 3)
		}
		// The throttle only delays reads; the trajectory must not move.
		for i := range v.calib.Loss {
			if i < len(run.Loss) && run.Loss[i] != v.calib.Loss[i] {
				return qs, fmt.Errorf("quant section: %s throttled losses %v diverge from unthrottled %v",
					name, run.Loss, v.calib.Loss)
			}
		}
		*v.dst = run
		fmt.Printf("  epochs %v  node IO %.1f MB/epoch  io share %.2f\n",
			run.EpochSec, run.NodeIOMB, run.IOShare)
	}
	if qs.Float32.NodeIOMB > 0 {
		qs.NodeIORatio = benchkit.Round(qs.FP16.NodeIOMB/qs.Float32.NodeIOMB, 3)
	}
	return qs, nil
}

// runNC trains serial out-of-core node classification from a prepared
// dataset directory, reporting per-epoch losses and the node-partition
// IO volume (the bytes the feature pager moved, compressed or not).
func runNC(dataDir string, capacity int, th *storage.Throttle, epochs int) (QuantRun, error) {
	var st QuantRun
	scratch, err := os.MkdirTemp("", "benchquant-scratch")
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(scratch)
	diskOpts := []marius.DiskOption{marius.Capacity(capacity)}
	if th != nil {
		diskOpts = append(diskOpts, marius.Throttled(th))
	}
	sess, err := marius.FromDataset(dataDir,
		marius.WithSeed(7), marius.WithDim(32), marius.WithFanouts(8, 8),
		marius.WithBatchSize(512), marius.WithWorkers(1),
		marius.WithDisk(scratch, diskOpts...),
	)
	if err != nil {
		return st, err
	}
	defer sess.Close()

	// Warm-up epoch (unmeasured), as in the LP section: steady state only.
	if _, err := sess.TrainEpoch(context.Background()); err != nil {
		return st, err
	}

	src := sess.Task().Source()
	nodeStart := src.Disk.Stats().Snapshot()
	edgeStart := src.Edges.Stats().Snapshot()
	start := time.Now()
	res, err := sess.Run(context.Background(), marius.Epochs(epochs))
	if err != nil {
		return st, err
	}
	st.TotalSec = benchkit.Round(time.Since(start).Seconds(), 3)
	for _, e := range res.Epochs {
		st.EpochSec = append(st.EpochSec, benchkit.Round(e.Duration.Seconds(), 3))
		st.Loss = append(st.Loss, e.Loss)
	}
	nodeIO := src.Disk.Stats().Snapshot().Sub(nodeStart)
	edgeIO := src.Edges.Stats().Snapshot().Sub(edgeStart)
	nodeB := nodeIO.BytesRead + nodeIO.BytesWritten
	st.NodeIOMB = benchkit.Round(float64(nodeB)/1e6/float64(epochs), 3)
	st.TotalIOMB = benchkit.Round(float64(nodeB+edgeIO.BytesRead+edgeIO.BytesWritten)/1e6/float64(epochs), 3)
	return st, nil
}

// runConfig trains cfg.Epochs on a fresh on-disk session (identical seed
// and synthetic graph every call) and reports its measurements. With
// instr set, a metrics registry and a Chrome-trace tracer (written into
// the run's temp dir) ride along — the overhead-probe configuration.
func runConfig(cfg Config, th *storage.Throttle, depth, workers, epochs int, instr bool) (RunStat, error) {
	var st RunStat
	g := gen.KG(gen.KGConfig{
		NumEntities: cfg.Entities, NumRelations: 8, NumEdges: cfg.Edges,
		ZipfS: 1.2, ValidFrac: 0.01, TestFrac: 0.01, Seed: 7,
	})
	dir, err := os.MkdirTemp("", "benchpipeline")
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(dir)

	diskOpts := []marius.DiskOption{
		marius.Partitions(cfg.Partitions), marius.Capacity(cfg.Capacity),
		marius.LogicalPartitions(cfg.Partitions),
	}
	if th != nil {
		diskOpts = append(diskOpts, marius.Throttled(th))
	}
	opts := []marius.Option{
		marius.WithModel(marius.DistMultOnly), marius.WithPolicy(marius.COMET),
		marius.WithDim(cfg.Dim), marius.WithBatchSize(cfg.BatchSize),
		marius.WithNegatives(cfg.Negatives),
		marius.WithDisk(dir, diskOpts...),
		marius.WithWorkers(workers), marius.WithPipeline(depth),
		marius.WithSeed(7),
	}
	if instr {
		tr, err := marius.NewTracer(filepath.Join(dir, "bench.trace"))
		if err != nil {
			return st, err
		}
		defer tr.Close()
		opts = append(opts, marius.WithMetrics(marius.NewMetrics()), marius.WithTrace(tr))
	}
	sess, err := marius.New(marius.LinkPrediction(), g, opts...)
	if err != nil {
		return st, err
	}
	defer sess.Close()

	// Warm-up epoch (unmeasured): fills the fragment cache and staging
	// pools so the measured epochs are the steady state every config
	// reaches after its first epoch.
	if _, err := sess.TrainEpoch(context.Background()); err != nil {
		return st, err
	}

	edgeStart := sess.Task().Source().Edges.Stats().Snapshot()
	start := time.Now()
	res, err := sess.Run(context.Background(), marius.Epochs(epochs))
	if err != nil {
		return st, err
	}
	st.TotalSec = benchkit.Round(time.Since(start).Seconds(), 3)
	edgeIO := sess.Task().Source().Edges.Stats().Snapshot().Sub(edgeStart)

	var readB, writeB int64
	for _, e := range res.Epochs {
		st.EpochSec = append(st.EpochSec, benchkit.Round(e.Duration.Seconds(), 3))
		st.Loss = append(st.Loss, e.Loss)
		st.Visits += e.Visits
		st.Batches += e.Batches
		readB += e.IO.BytesRead
		writeB += e.IO.BytesWritten
		st.PrefetchHits += e.IO.PrefetchHits
		st.PrefetchMisses += e.IO.PrefetchMisses
		st.LoadWaitSec += e.Pipeline.LoadWait.Seconds()
		st.BatchWaitSec += e.Pipeline.BatchWait.Seconds()
	}
	readB += edgeIO.BytesRead
	st.IOReadMB = benchkit.Round(float64(readB)/1e6/float64(epochs), 3)
	st.IOWriteMB = benchkit.Round(float64(writeB)/1e6/float64(epochs), 3)
	st.LoadWaitSec = benchkit.Round(st.LoadWaitSec, 3)
	st.BatchWaitSec = benchkit.Round(st.BatchWaitSec, 3)
	return st, nil
}

// microOverhead bounds the per-epoch instrumentation cost
// deterministically: each hot-path primitive (histogram observe, counter
// inc, gauge set, span write, clock read) is timed over a tight loop,
// multiplied by the operation counts an instrumented epoch actually
// performs (per batch: build + compute spans, stage/stall observes, a
// queue-depth set, a counter; per visit: prefetch + evict spans, a load
// observe, a counter), and divided by the fastest plain epoch. This is
// what a wall-clock diff of two multi-second epochs tries and fails to
// measure on a machine with run-to-run drift.
func microOverhead(batchesPerEpoch, visitsPerEpoch int, epochSec float64) float64 {
	if epochSec <= 0 {
		return 0
	}
	reg := obs.NewRegistry()
	h := reg.Histogram("probe_seconds", "", obs.ExpBuckets(0.0001, 2, 20))
	c := reg.Counter("probe_total", "")
	g := reg.Gauge("probe_depth", "")
	tr := obs.NewTracer(io.Discard)
	const n = 200_000
	perOp := func(f func()) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return time.Since(t0).Seconds() / n
	}
	clock := perOp(func() { _ = time.Now() })
	observe := perOp(func() { h.Observe(0.0017) })
	inc := perOp(func() { c.Inc() })
	set := perOp(func() { g.Set(3) })
	start := time.Now()
	span := perOp(func() { tr.Span("probe", "span", 0, start, time.Millisecond) })
	perBatch := 2*span + 4*observe + set + inc + 6*clock
	perVisit := 2*span + observe + inc + 6*clock
	return (float64(batchesPerEpoch)*perBatch + float64(visitsPerEpoch)*perVisit) / epochSec
}

// minOf returns the smallest element (0 for an empty slice).
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
