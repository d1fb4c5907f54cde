package tensor

// The AVX micro-kernel, stamped into one symbol per calling kernel (see
// simd_amd64.s). Each call computes one output row segment of w lanes:
//
//	out[l] (+)= Σ_{j<n} s[j*sstride] * p[j*pstride+l],  l in [0, w)
//
// with the seed, final-add and zero-skip behaviour selected by mode
// (simdSeedOut, simdAddOut, simdSkipZero). Strides count float32s. The
// callers keep each call to one row or one panel block, because assembly
// is not asynchronously preemptible.

// hasAVX reports whether the CPU supports AVX and the OS saves YMM state.
func hasAVX() bool

//go:noescape
func matmulRangeAVX(out, s *float32, sstride int, p *float32, pstride, n, w, mode int)

//go:noescape
func matmulTARangeAVX(out, s *float32, sstride int, p *float32, pstride, n, w, mode int)

//go:noescape
func matmulTBRangeAVX(out, s *float32, sstride int, p *float32, pstride, n, w, mode int)

//go:noescape
func gatherMatMulTBRangeAVX(out, s *float32, sstride int, p *float32, pstride, n, w, mode int)

//go:noescape
func matMulGatherRangeAVX(out, s *float32, sstride int, p *float32, pstride, n, w, mode int)

//go:noescape
func gatherMatMulTBDequantRangeAVX(out, s *float32, sstride int, p *float32, pstride, n, w, mode int)

var haveAVX = hasAVX()
