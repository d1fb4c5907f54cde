package tensor

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
)

// Differential tests for the AVX micro-kernel: every converted kernel must
// produce the same bits on the AVX path as on its portable Go loop, across
// widths around the vector and panel boundaries, zero multipliers, -0
// seeds, ±Inf and NaN, accumulate on and off, and 1, 2 and 4 workers.
// NaN results are compared as "both NaN": the IEEE payload of a NaN is not
// part of the contract (x86 propagates the first operand's payload, and
// the Go compiler may commute an addition's operands).

// TestMain runs the package's suite twice: on the AVX kernels (where the
// CPU has them) and again forced onto the portable loops, so every
// conformance and gradient test covers both paths. A fuzzing run (-fuzz)
// runs once: the fuzz target already compares both paths on every input.
func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if code == 0 && haveAVX && flag.Lookup("test.fuzz").Value.String() == "" {
		SetPortableForTesting(true)
		code = m.Run()
	}
	os.Exit(code)
}

// bothPaths evaluates f on the AVX path and on the portable path.
func bothPaths(t testing.TB, f func() *Tensor) (simd, portable *Tensor) {
	t.Helper()
	if !haveAVX {
		t.Skip("no AVX on this CPU")
	}
	prev := SetPortableForTesting(false)
	defer SetPortableForTesting(prev)
	simd = f()
	SetPortableForTesting(true)
	portable = f()
	return simd, portable
}

// sameBits reports the first element where got and want differ in bits,
// treating any two NaNs as equal.
func sameBits(got, want *Tensor) error {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return fmt.Errorf("element %d (row %d col %d) = %v (%#08x), want %v (%#08x)",
				i, i/max(want.Cols, 1), i%max(want.Cols, 1), g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
	return nil
}

// finite reports whether every element of every tensor is finite.
func finite(ts ...*Tensor) bool {
	for _, t := range ts {
		for _, v := range t.Data {
			if math.IsInf(float64(v), 0) || v != v {
				return false
			}
		}
	}
	return true
}

// specialMatrix draws a rows x cols matrix of normals with exact +0 and -0
// sprinkled in and, when specials is set, ±Inf and NaN too.
func specialMatrix(rng *rand.Rand, rows, cols int, specials bool) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		switch r := rng.Intn(20); {
		case r == 0:
			t.Data[i] = 0
		case r == 1:
			t.Data[i] = float32(math.Copysign(0, -1))
		case r == 2 && specials:
			t.Data[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
		case r == 3 && specials:
			t.Data[i] = float32(math.NaN())
		default:
			t.Data[i] = float32(rng.NormFloat64())
		}
	}
	return t
}

func workerContexts() []*Compute {
	return []*Compute{NewCompute(1, nil), NewCompute(2, nil), NewCompute(4, NewArena())}
}

// simdKs are the reduction widths around the 8-lane vector and the 32-lane
// block; 200 and 512 give panels narrower than 32 lanes, and 600 is wider
// than a panel holds and takes the portable loop on both sides.
var simdKs = []int{1, 7, 8, 9, 31, 32, 33, 64, 100, 200, 512, 600}

// simdMs are output widths that are not multiples of the panel width.
var simdMs = []int{1, 5, 13, 67, 130}

func TestSIMDMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range simdKs {
		for _, m := range simdMs {
			n := []int{1, 3, 17}[rng.Intn(3)]
			specials := rng.Intn(2) == 0
			matrix := func(rows, cols int) *Tensor { return specialMatrix(rng, rows, cols, specials) }
			for _, c := range workerContexts() {
				for _, acc := range []bool{false, true} {
					checkDenseKernels(t, c, matrix, rng, n, k, m, acc)
				}
			}
		}
	}
}

// checkDenseKernels runs every converted kernel on both paths for one
// shape, with operands drawn from matrix, and requires identical bits. On
// finite inputs without accumulation it also requires equality with the
// Ref* reference: the references are zero-seeded and skip no terms, so
// they agree with the kernels unless a skipped zero multiplier meets an
// Inf or NaN.
func checkDenseKernels(t testing.TB, c *Compute, matrix func(rows, cols int) *Tensor, rng *rand.Rand, n, k, m int, acc bool) {
	t.Helper()
	a, b, ta := matrix(n, k), matrix(k, m), matrix(k, n)
	table := matrix(m+3, k)
	bt := FromSlice(m, k, table.Data[:m*k])
	g, seed := matrix(n, m), matrix(n, m)
	gseed := New(n, k) // matMulGatherInto always accumulates
	if acc {
		gseed = matrix(n, k)
	}
	idx := randIdx(rng, m, table.Rows)
	fin := finite(a, b, ta, table, g)

	// into runs kernel on a copy of init: the value accumulated onto, or
	// one every non-accumulating kernel must overwrite.
	into := func(init *Tensor, kernel func(out *Tensor)) func() *Tensor {
		return func() *Tensor {
			out := init.Clone()
			kernel(out)
			return out
		}
	}
	type kernelCase struct {
		name     string
		run, ref func() *Tensor
	}
	cases := []kernelCase{
		{"MatMulInto", into(seed, func(out *Tensor) { c.MatMulInto(out, a, b, acc) }),
			func() *Tensor { return RefMatMul(a, b) }},
		{"MatMulTransposeAInto", into(seed, func(out *Tensor) { c.MatMulTransposeAInto(out, ta, b, acc) }),
			func() *Tensor { return RefMatMulTransposeA(ta, b) }},
		{"MatMulTransposeBInto", into(seed, func(out *Tensor) { c.MatMulTransposeBInto(out, a, bt, acc) }),
			func() *Tensor { return RefMatMulTransposeB(a, bt) }},
		{"GatherMatMulTB", func() *Tensor { return c.GatherMatMulTB(a, table, idx) },
			func() *Tensor { return RefGatherMatMulTB(a, table, idx) }},
		{"matMulGatherInto", into(gseed, func(out *Tensor) { c.matMulGatherInto(out, g, table, idx) }),
			func() *Tensor { return RefMatMul(g, RefGather(table, idx)) }},
	}
	for _, kind := range []QuantKind{QuantF16, QuantI8} {
		q := Quantize(table, kind)
		cases = append(cases, kernelCase{"GatherMatMulTBDequant/" + kind.String(),
			func() *Tensor { return c.GatherMatMulTBDequant(a, q, idx) },
			func() *Tensor { return RefGatherMatMulTBDequant(a, q, idx) }})
	}
	for _, tc := range cases {
		simd, portable := bothPaths(t, tc.run)
		if err := sameBits(simd, portable); err != nil {
			t.Fatalf("%s n=%d k=%d m=%d workers=%d acc=%v: AVX vs portable: %v", tc.name, n, k, m, c.Workers(), acc, err)
		}
		if !acc && fin {
			if err := sameBits(simd, tc.ref()); err != nil {
				t.Fatalf("%s n=%d k=%d m=%d workers=%d: AVX vs Ref: %v", tc.name, n, k, m, c.Workers(), err)
			}
		}
	}
}

// TestSIMDZeroSkipAndSigns pins the three behaviours a vector kernel could
// most easily get wrong: axpy forms skip a zero multiplier even against an
// Inf (the portable loop never computes 0*Inf there), dot forms do not
// skip it, and a -0 seed survives only as long as no +0 term is added.
func TestSIMDZeroSkipAndSigns(t *testing.T) {
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	for _, w := range []int{1, 8, 9, 33} {
		a := New(1, 2)
		a.Data[0], a.Data[1] = 0, negZero // both multipliers are zeros
		b := New(2, w)
		for j := range b.Data {
			b.Data[j] = inf
		}
		simd, portable := bothPaths(t, func() *Tensor {
			out := New(1, w)
			for j := range out.Data {
				out.Data[j] = negZero
			}
			NewCompute(1, nil).MatMulInto(out, a, b, true)
			return out
		})
		if err := sameBits(simd, portable); err != nil {
			t.Fatalf("w=%d axpy skip: %v", w, err)
		}
		if math.Float32bits(simd.Data[w-1]) != math.Float32bits(negZero) {
			t.Fatalf("w=%d: skipped zero multipliers changed a -0 seed to %v", w, simd.Data[w-1])
		}
		// The dot form multiplies 0*Inf and so yields NaN.
		bt := New(w, 2)
		for j := range bt.Data {
			bt.Data[j] = inf
		}
		simd, portable = bothPaths(t, func() *Tensor { return NewCompute(1, nil).MatMulTransposeB(a, bt) })
		if err := sameBits(simd, portable); err != nil {
			t.Fatalf("w=%d dot no-skip: %v", w, err)
		}
		if v := simd.Data[w-1]; v == v {
			t.Fatalf("w=%d: dot form skipped a zero multiplier (got %v, want NaN)", w, v)
		}
	}
}

// FuzzDenseKernels checks, on fuzzer-chosen shapes and values (any float32
// bit pattern, so subnormals, ±Inf and NaN included), that every converted
// kernel gives the same bits on the AVX and portable paths, and on finite
// inputs equals its Ref* reference.
func FuzzDenseKernels(f *testing.F) {
	f.Add(3, 32, 67, 2, false, []byte("seed"))
	f.Add(1, 9, 13, 1, true, []byte{0, 0, 0x80, 0x7f, 0, 0, 0, 0x80, 0, 0, 0xc0, 0x7f})
	f.Fuzz(func(t *testing.T, n, k, m, workers int, acc bool, data []byte) {
		n, k, m = 1+fuzzDim(n, 20), fuzzDim(k, 130), fuzzDim(m, 140)
		c := NewCompute(1+fuzzDim(workers, 4), nil)
		// The fuzzer's bytes are a pool of float32 bit patterns; a third
		// of every matrix is drawn from it, the rest from normals with
		// exact zeros.
		pool := make([]uint32, len(data)/4)
		for i := range pool {
			pool[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		matrix := func(rows, cols int) *Tensor {
			t := specialMatrix(rng, rows, cols, false)
			for i := range t.Data {
				if len(pool) > 0 && i%3 == 0 {
					t.Data[i] = math.Float32frombits(pool[rng.Intn(len(pool))])
				}
			}
			return t
		}
		checkDenseKernels(t, c, matrix, rng, n, k, m, acc)
	})
}

// fuzzDim maps any fuzzer int into [0, mod).
func fuzzDim(x, mod int) int { return int(uint(x) % uint(mod)) }
