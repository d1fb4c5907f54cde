package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The tail percentile is the highest one with at least ten samples
// beyond it: p99 needs 1000 samples.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n       int
		pct, v  float64
		beyond  int
		tooFew  bool
		comment string
	}{
		{n: 10, tooFew: true},
		{n: 11, pct: 9, v: 1, beyond: 10},
		{n: 100, pct: 90, v: 90, beyond: 10},
		{n: 300, pct: 96.6, v: 290, beyond: 10},
		{n: 1000, pct: 99, v: 990, beyond: 10},
		{n: 2500, pct: 99.6, v: 2490, beyond: 10},
		{n: 1234, pct: 99.1, v: 1223, beyond: 11},
	} {
		pct, v, ok := tail(seq(c.n))
		if c.tooFew {
			if ok {
				t.Errorf("n=%d: got a tail from too few samples", c.n)
			}
			continue
		}
		if !ok || math.Abs(pct-c.pct) > 1e-9 || v != c.v {
			t.Errorf("n=%d: tail = p%v %v (ok=%v), want p%v %v", c.n, pct, v, ok, c.pct, c.v)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != c.beyond || beyond < tailSamples {
			t.Errorf("n=%d: %d samples beyond the tail, want %d (>= %d)", c.n, beyond, c.beyond, tailSamples)
		}
	}
}

func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	xs := seq(20)
	xs[0] = math.Inf(1)
	s := summarize(xs)
	if s.N != 20 || s.P50 != 10.5 {
		t.Fatalf("summary %+v", s)
	}
	// 19 finite samples 1..19 plus +Inf: the p50 tail (10 beyond) is 10.
	if s.TailPct != 50 || s.Tail != 10 {
		t.Fatalf("tail p%v = %v, want p50 = 10", s.TailPct, s.Tail)
	}
	if got := summarize([]float64{1, 2, math.Inf(1)}); !math.IsInf(got.Tail, 1) {
		t.Fatalf("small sample with a failure: tail %v, want +Inf", got.Tail)
	}
}
