package main

import (
	"math"
	"testing"
)

// A link-prediction profile in the shape `go tool pprof -top` prints.
const lpTop = `File: perfbench
Type: cpu
Duration: 4.21s, Total samples = 8s (190.02%)
Showing nodes accounting for 8s, 100% of 8s total
      flat  flat%   sum%        cum   cum%
     2.20s 27.50% 27.50%      2.20s 27.50%  repro/internal/tensor.matMulGatherRange
     1.60s 20.00% 47.50%      1.60s 20.00%  repro/internal/tensor.gatherMatMulTBRange
     1.20s 15.00% 62.50%      1.80s 22.50%  repro/internal/tensor.matmulTARange
     0.60s  7.50% 70.00%      0.60s  7.50%  repro/internal/tensor.axpyUnrolled (inline)
     0.80s 10.00% 80.00%      0.80s 10.00%  math.Exp
     0.20s  2.50% 82.50%      0.30s  3.75%  repro/internal/tensor.rowSoftmaxRange
     0.10s  1.25% 83.75%      0.10s  1.25%  repro/internal/tensor.(*Tape).SoftmaxCrossEntropy.func1
     0.10s  1.25% 85.00%      0.10s  1.25%  repro/internal/sampler.(*Sampler).Sample
     0.20s  2.50% 87.50%      0.20s  2.50%  repro/internal/storage.(*MemoryNodeStore).Gather
     0.30s  3.75% 91.25%      0.30s  3.75%  runtime.scanobject
     0.10s  1.25% 92.50%      0.10s  1.25%  runtime.gcDrain
     0.10s  1.25% 93.75%      0.10s  1.25%  repro/internal/nn.(*SparseAdaGrad).StepRow
     500ms  6.25%   100%      500ms  6.25%  runtime.memmove
         0     0%   100%      6.00s 75.00%  repro/internal/tensor.(*Compute).fanOut.func1
`

// A node-classification profile: no negative-scoring kernel, so the
// transpose-A product is a dense layer's weight gradient.
const ncTop = `      flat  flat%   sum%        cum   cum%
      30ms 30.00% 30.00%       30ms 30.00%  repro/internal/tensor.axpyUnrolled
      20ms 20.00% 50.00%       40ms 40.00%  repro/internal/tensor.matmulTARange
      20ms 20.00% 70.00%       20ms 20.00%  repro/internal/tensor.gatherSegmentSumRange
      10ms 10.00% 80.00%       10ms 10.00%  repro/internal/graph.(*Segmented).sampleDir
      10ms 10.00% 90.00%       10ms 10.00%  repro/internal/storage.(*DiskNodeStore).Gather
      10ms 10.00%   100%       10ms 10.00%  runtime.memmove
`

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAttributeLinkPrediction(t *testing.T) {
	entries, err := parseTop([]byte(lpTop))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 14 || entries[3].Func != "repro/internal/tensor.axpyUnrolled" || !near(entries[12].Flat, 0.5) {
		t.Fatalf("parsed %d entries: %+v", len(entries), entries)
	}
	got := attribute(entries)
	want := map[string]float64{
		"negscore_fwd": 1.6 / 8, "negscore_bwd": (2.2 + 1.2 + 0.6) / 8, "softmax_ce": 1.1 / 8,
		"dense_matmul": 0, "gather_segment": 0, "sampler": 0.1 / 8, "storage": 0.2 / 8,
		"optimizer": 0.1 / 8, "topk_sort": 0, "gc": 0.4 / 8, "other": 0.5 / 8,
	}
	sum := 0.0
	for _, fam := range cpuFamilies {
		sum += got[fam]
		if !near(got[fam], want[fam]) {
			t.Errorf("cpu.%s = %.4f, want %.4f", fam, got[fam], want[fam])
		}
	}
	if !near(sum, 1) {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestAttributeNodeClassification(t *testing.T) {
	entries, err := parseTop([]byte(ncTop))
	if err != nil {
		t.Fatal(err)
	}
	got := attribute(entries)
	for fam, want := range map[string]float64{
		"negscore_fwd": 0, "negscore_bwd": 0, "softmax_ce": 0, "dense_matmul": 0.5,
		"gather_segment": 0.2, "sampler": 0.1, "storage": 0.1, "other": 0.1,
	} {
		if !near(got[fam], want) {
			t.Errorf("cpu.%s = %.4f, want %.4f", fam, got[fam], want)
		}
	}
}

func TestAttributeEmptyAndMalformed(t *testing.T) {
	got := attribute(nil)
	for _, fam := range cpuFamilies {
		if got[fam] != 0 {
			t.Errorf("empty profile: cpu.%s = %v", fam, got[fam])
		}
	}
	if _, err := parseTop([]byte("no header here\n")); err == nil {
		t.Error("text without the column header parsed")
	}
	if _, err := parseTop([]byte("      flat  flat%   sum%        cum   cum%\n  1.2x 1% 1% 1s 1%  f\n")); err == nil {
		t.Error("a malformed time parsed")
	}
}

func TestParseDur(t *testing.T) {
	for s, want := range map[string]float64{"0": 0, "1.5s": 1.5, "450ms": 0.45, "20us": 2e-5, "3ns": 3e-9, "2mins": 120, "1hrs": 3600} {
		got, err := parseDur(s)
		if err != nil || !near(got, want) {
			t.Errorf("parseDur(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
}

// Serving spends its time sorting entity scores for top-k.
func TestAttributeServing(t *testing.T) {
	entries, err := parseTop([]byte(`      flat  flat%   sum%        cum   cum%
     310ms 40.00% 40.00%      310ms 40.00%  repro/internal/decoder.TopKSkip.func1
     250ms 30.00% 70.00%      560ms 70.00%  sort.partition_func
      80ms 10.00% 80.00%       80ms 10.00%  internal/reflectlite.Swapper.func6
      80ms 10.00% 90.00%       80ms 10.00%  repro/internal/tensor.gatherMatMulTBRange
      80ms 10.00%   100%       80ms 10.00%  runtime.futex
`))
	if err != nil {
		t.Fatal(err)
	}
	got := attribute(entries)
	if !near(got["topk_sort"], 640.0/800) || !near(got["negscore_fwd"], 0.1) || !near(got["other"], 0.1) {
		t.Fatalf("shares %v", got)
	}
}
