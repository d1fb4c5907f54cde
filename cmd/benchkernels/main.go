// Command benchkernels measures the tensor hot-path kernels against the
// retained naive references and emits BENCH_kernels.json, the repo's
// kernel performance baseline. Every future PR can diff its numbers
// against the checked-in file.
//
//	make bench-kernels                 # CI: -short -check, report to /tmp
//	go run ./cmd/benchkernels -check   # full shapes: the checked-in baseline
//
// -check gates, so kernel regressions fail loudly rather than drifting:
//
//   - the 4-worker blocked matmul reaches 2x the naive reference's
//     throughput, and with two or more CPUs at least 1.15x the 1-worker
//     blocked kernel (the fan-out must really parallelize);
//   - fused dequantizing negative scoring beats materialize-then-score
//     by at least 1.2x, for fp16 and for int8;
//   - the arena training step allocates nothing per batch.
//
// The gated matmul and dequant configurations run best-of-3.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/tensor"
)

// Result is one measured kernel configuration.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     int64   `json:"ns_per_op"`
	MFlops      float64 `json:"mflops,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the schema of BENCH_kernels.json.
type Report struct {
	benchkit.Header
	Shapes  map[string]any `json:"shapes"`
	Results []Result       `json:"results"`
	Summary map[string]any `json:"summary"`
}

func bench(name string, flops float64, fn func(b *testing.B)) Result {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	res := Result{Name: name, NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp()}
	if flops > 0 && r.NsPerOp() > 0 {
		res.MFlops = flops / float64(r.NsPerOp()) * 1e3
	}
	fmt.Printf("%-32s %12d ns/op %10.0f MFLOP/s %6d allocs/op\n", name, res.NsPerOp, res.MFlops, res.AllocsPerOp)
	return res
}

func randn(rng *rand.Rand, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	t.RandNormal(rng, 1)
	return t
}

// benchBest re-measures a benchmark `rounds` times and keeps the fastest
// ns/op (and the worst allocs/op). The CI check compares ratios of these
// numbers; best-of-N strips scheduler noise on shared runners so the
// ratio floors gate the kernels, not the machine.
func benchBest(name string, flops float64, rounds int, fn func(b *testing.B)) Result {
	best := bench(name, flops, fn)
	for r := 1; r < rounds; r++ {
		next := bench(name, flops, fn)
		if next.NsPerOp < best.NsPerOp {
			best.NsPerOp, best.MFlops = next.NsPerOp, next.MFlops
		}
		if next.AllocsPerOp > best.AllocsPerOp {
			best.AllocsPerOp = next.AllocsPerOp
		}
	}
	return best
}

func main() {
	run := benchkit.New("kernels", "enforce acceptance floors (>=2x matmul, 0 allocs)")
	flag.Parse()

	// Shapes: the matmul triple models a GNN layer (batch x dim @ dim x
	// dim); the gather/segment shapes model a fanout-8 neighborhood; the
	// negative-scoring shapes model a 500-negative DistMult batch.
	n, k, m := 512, 128, 256
	gRows, gDim, gFan, gSegs := 2000, 64, 8, 1500
	sB, sDim, sNeg, sTable := 256, 64, 500, 4000
	if run.Short {
		n, k, m = 192, 96, 128
		gRows, gSegs = 800, 600
		sB, sNeg, sTable = 128, 250, 1500
	}

	rng := rand.New(rand.NewSource(42))
	a := randn(rng, n, k)
	b := randn(rng, k, m)
	matmulFlops := 2 * float64(n) * float64(k) * float64(m)

	h0 := randn(rng, gRows, gDim)
	idx := make([]int32, gSegs*gFan)
	for i := range idx {
		idx[i] = int32(rng.Intn(gRows))
	}
	offsets := make([]int32, gSegs)
	for s := 1; s < gSegs; s++ {
		offsets[s] = offsets[s-1] + int32(gFan)
	}

	qry := randn(rng, sB, sDim)
	table := randn(rng, sTable, sDim)
	negIdx := make([]int32, sNeg)
	for i := range negIdx {
		negIdx[i] = int32(rng.Intn(sTable))
	}
	negFlops := 2 * float64(sB) * float64(sDim) * float64(sNeg)

	serial := tensor.NewCompute(1, nil)
	w4 := tensor.NewCompute(4, nil)

	var results []Result
	add := func(r Result) { results = append(results, r) }

	// The naive kernel is the seed-era baseline: textbook triple loop,
	// single goroutine, strided access. The three matmul configurations
	// feed the -check ratio floors, so they run best-of-3.
	naive := benchBest("matmul_naive", matmulFlops, 3, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			tensor.RefMatMul(a, b)
		}
	})
	add(naive)
	mm1 := benchBest("matmul_blocked_w1", matmulFlops, 3, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			serial.MatMul(a, b)
		}
	})
	add(mm1)
	mm4 := benchBest("matmul_blocked_w4", matmulFlops, 3, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			w4.MatMul(a, b)
		}
	})
	add(mm4)

	gsUnfused := bench("gather_segment_unfused", 0, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			w4.SegmentSum(w4.Gather(h0, idx), offsets)
		}
	})
	add(gsUnfused)
	gsFused := bench("gather_segment_fused", 0, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			w4.GatherSegmentSum(h0, idx, offsets)
		}
	})
	add(gsFused)

	negUnfused := bench("negscore_unfused", negFlops, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			w4.MatMulTransposeB(qry, w4.Gather(table, negIdx))
		}
	})
	add(negUnfused)
	negFused := bench("negscore_fused_gathermatmul", negFlops, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			w4.GatherMatMulTB(qry, table, negIdx)
		}
	})
	add(negFused)
	// Reported only: the same fused kernel on its portable Go loop, so the
	// AVX kernel's gain over it stays on record (on a CPU without AVX both
	// rows time the portable loop).
	tensor.SetPortableForTesting(true)
	negPortable := bench("negscore_fused_gathermatmul_portable", negFlops, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			w4.GatherMatMulTB(qry, table, negIdx)
		}
	})
	tensor.SetPortableForTesting(false)
	add(negPortable)

	// Quantized scoring: the serving/storage dequant path. Unfused
	// materializes the full float32 table from the compressed form and
	// then runs the fused float32 kernel — what a reader without the
	// dequantizing kernels would have to do per snapshot or per partition
	// load; fused dequantizes only the rows each dot product touches.
	// These feed a -check ratio floor, so best-of-3.
	var deqSpeedup = map[string]float64{}
	for _, kind := range []tensor.QuantKind{tensor.QuantF16, tensor.QuantI8} {
		qt := tensor.Quantize(table, kind)
		unfused := benchBest("negscore_dequant_unfused_"+kind.String(), negFlops, 3, func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				w4.GatherMatMulTB(qry, qt.Dequant(), negIdx)
			}
		})
		add(unfused)
		fused := benchBest("negscore_dequant_fused_"+kind.String(), negFlops, 3, func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				w4.GatherMatMulTBDequant(qry, qt, negIdx)
			}
		})
		add(fused)
		deqSpeedup[kind.String()] = float64(unfused.NsPerOp) / float64(fused.NsPerOp)
	}

	// Arena steady state: tensor.BenchTrainStep is the same sequence the
	// zero-allocation contract test asserts on — the two gates measure one
	// body by construction.
	arena := tensor.NewArena()
	ca := tensor.NewCompute(1, arena)
	w1t := randn(rng, gDim, gDim)
	w2t := randn(rng, gDim, gDim)
	dh0 := tensor.New(gRows, gDim)
	tensor.BenchTrainStep(ca, h0, w1t, w2t, dh0, idx, offsets) // warm up slabs
	arena.Reset()
	arenaStep := bench("arena_train_step_w1", 0, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			tensor.BenchTrainStep(ca, h0, w1t, w2t, dh0, idx, offsets)
			arena.Reset()
		}
	})
	add(arenaStep)
	heapStep := bench("heap_train_step_w1", 0, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			tensor.BenchTrainStep(serial, h0, w1t, w2t, dh0, idx, offsets)
		}
	})
	add(heapStep)

	speedupNaive := float64(naive.NsPerOp) / float64(mm4.NsPerOp)
	speedupSerial := float64(mm1.NsPerOp) / float64(mm4.NsPerOp)
	rep := Report{
		Header: run.Header(),
		Shapes: map[string]any{
			"matmul":            []int{n, k, m},
			"gather_segment":    map[string]int{"rows": gRows, "dim": gDim, "fanout": gFan, "segments": gSegs},
			"negative_scoring":  map[string]int{"batch": sB, "dim": sDim, "negatives": sNeg, "table": sTable},
			"arena_train_layer": gDim,
		},
		Results: results,
		Summary: map[string]any{
			"matmul_speedup_workers4_vs_naive":  benchkit.Round(speedupNaive, 2),
			"matmul_speedup_workers4_vs_serial": benchkit.Round(speedupSerial, 2),
			"fused_gather_segment_speedup":      benchkit.Round(float64(gsUnfused.NsPerOp)/float64(gsFused.NsPerOp), 2),
			"fused_negscore_speedup":            benchkit.Round(float64(negUnfused.NsPerOp)/float64(negFused.NsPerOp), 2),
			"negscore_simd_vs_portable":         benchkit.Round(float64(negPortable.NsPerOp)/float64(negFused.NsPerOp), 2),
			"fused_dequant_speedup_fp16":        benchkit.Round(deqSpeedup["fp16"], 2),
			"fused_dequant_speedup_int8":        benchkit.Round(deqSpeedup["int8"], 2),
			"arena_allocs_per_batch":            arenaStep.AllocsPerOp,
			"heap_allocs_per_batch":             heapStep.AllocsPerOp,
			"arena_train_step_speedup":          benchkit.Round(float64(heapStep.NsPerOp)/float64(arenaStep.NsPerOp), 2),
		},
	}

	run.Write(&rep)
	fmt.Printf("\nwrote %s: matmul w4 %.2fx naive, arena %d allocs/batch\n", run.Out, speedupNaive, arenaStep.AllocsPerOp)

	run.Gate(speedupNaive >= 2, "matmul 4-worker speedup %.2fx < 2x naive", speedupNaive)
	// On a single-CPU machine workers4-vs-serial is pure dispatch
	// overhead (~1.0x), so the naive floor above carries the check; with
	// real cores available a silently-disabled fan-out (e.g. a serialFor
	// regression) must not pass, so demand a genuine parallel speedup.
	run.Gate(runtime.GOMAXPROCS(0) < 2 || speedupSerial >= 1.15,
		"matmul 4-worker speedup %.2fx vs serial on %d CPUs — kernel fan-out is not parallelizing",
		speedupSerial, runtime.GOMAXPROCS(0))
	// Conservative floor: dequantizing only the gathered rows must
	// clearly beat re-materializing the whole float32 table per op.
	for _, kind := range []string{"fp16", "int8"} {
		sp := deqSpeedup[kind]
		run.Gate(sp >= 1.2, "fused %s dequant scoring %.2fx vs materialize-then-score, want >= 1.2x", kind, sp)
	}
	run.Gate(arenaStep.AllocsPerOp == 0, "arena training step allocates %d/op, want 0", arenaStep.AllocsPerOp)
	run.Done()
}
