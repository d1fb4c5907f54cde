// Package tensor provides a dense float32 matrix type and a small
// reverse-mode automatic-differentiation tape.
//
// It is the compute substrate for the GNN layers in this repository: the
// role played by PyTorch dense CUDA kernels in the MariusGNN paper is played
// here by the kernels in this package (matmul, gather, segment reductions).
// All kernels operate on row-major [Rows x Cols] float32 buffers.
//
// # SIMD kernels and bit-exactness
//
// On amd64 CPUs with AVX (detected once with CPUID and XGETBV) the dense
// float32 products — matmulRange, matmulTARange, matmulTBRange,
// gatherMatMulTBRange, matMulGatherRange and gatherMatMulTBDequantRange —
// hand their inner loops to one Go-assembly micro-kernel (simd_amd64.s);
// other architectures and CPUs without AVX run the portable Go loops,
// which the tests also use as the oracle. The two paths give the same
// bits:
//
//   - Lanes are distinct output elements. A vector register holds 8
//     different output columns of one row, never 8 partial sums of one
//     element, so no reduction is split or reordered. Dot-product forms
//     get there by copying each block of candidate rows into a transposed
//     stack panel.
//   - There is no FMA. Each term is one rounded VMULPS and one rounded
//     VADDPS, in the same ascending order as the Go loop; the Go compiler
//     emits MULSS+ADDSS for x*y+z on amd64 at every GOAMD64 level. Seeds
//     match too: +0 for dot products, the existing value for
//     accumulation, and a complete dot product added in one addition
//     where the Go loop does that. Axpy forms skip zero multipliers, dot
//     forms do not, exactly like their Go loops.
//   - Only VEX encodings are used (VMOVUPS, VMASKMOVPS, VUCOMISS, ...),
//     and the kernel ends with VZEROUPPER, so no legacy-SSE instruction
//     pays the transition penalty next to dirty upper YMM halves.
//
// NaN payloads are the one thing not pinned: when two NaNs meet, x86
// keeps the first operand's, and the Go compiler is free to commute an
// addition. Every NaN stays a NaN on both paths.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major matrix of float32.
// A vector is represented as a [n x 1] or [1 x n] matrix.
type Tensor struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zero-initialized Rows x Cols tensor.
func New(rows, cols int) *Tensor {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data as a Rows x Cols tensor. The slice is used directly,
// not copied, and must have length rows*cols.
func FromSlice(rows, cols int, data []float32) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Rows, t.Cols)
	copy(c.Data, t.Data)
	return c
}

// At returns the element at row i, column j.
func (t *Tensor) At(i, j int) float32 { return t.Data[i*t.Cols+j] }

// Set assigns the element at row i, column j.
func (t *Tensor) Set(i, j int, v float32) { t.Data[i*t.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (t *Tensor) Row(i int) []float32 { return t.Data[i*t.Cols : (i+1)*t.Cols] }

// Shape returns (rows, cols).
func (t *Tensor) Shape() (int, int) { return t.Rows, t.Cols }

// SameShape reports whether t and o have identical dimensions.
func (t *Tensor) SameShape(o *Tensor) bool { return t.Rows == o.Rows && t.Cols == o.Cols }

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// AddInPlace accumulates o into t element-wise.
func (t *Tensor) AddInPlace(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %dx%d vs %dx%d", t.Rows, t.Cols, o.Rows, o.Cols))
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// ScaleInPlace multiplies every element of t by s.
func (t *Tensor) ScaleInPlace(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// RandUniform fills t with samples from U(-a, a) drawn from rng.
func (t *Tensor) RandUniform(rng *rand.Rand, a float64) {
	for i := range t.Data {
		t.Data[i] = float32((rng.Float64()*2 - 1) * a)
	}
}

// RandNormal fills t with samples from N(0, std^2) drawn from rng.
func (t *Tensor) RandNormal(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// GlorotUniform fills t with Glorot/Xavier-uniform values using its own
// shape as (fanIn=Rows, fanOut=Cols).
func (t *Tensor) GlorotUniform(rng *rand.Rand) {
	a := math.Sqrt(6.0 / float64(t.Rows+t.Cols))
	t.RandUniform(rng, a)
}

// Norm2 returns the Euclidean norm of all elements.
func (t *Tensor) Norm2() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Sum returns the sum of all elements (accumulated in float64).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// MaxAbs returns the largest absolute element value.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// Equal reports whether t and o have the same shape and elements within eps.
func (t *Tensor) Equal(o *Tensor, eps float32) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.Data {
		d := t.Data[i] - o.Data[i]
		if d < -eps || d > eps {
			return false
		}
	}
	return true
}

// String renders small tensors for debugging.
func (t *Tensor) String() string {
	if t.Rows*t.Cols > 64 {
		return fmt.Sprintf("Tensor(%dx%d)", t.Rows, t.Cols)
	}
	s := fmt.Sprintf("Tensor(%dx%d)[", t.Rows, t.Cols)
	for i := 0; i < t.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < t.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", t.At(i, j))
		}
	}
	return s + "]"
}
