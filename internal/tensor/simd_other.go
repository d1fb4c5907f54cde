//go:build !amd64

package tensor

// Without amd64 there is no AVX micro-kernel: haveAVX is false, so the
// kernels always take their portable Go loops and these stubs never run.

const haveAVX = false

func matmulRangeAVX(out, s *float32, sstride int, p *float32, pstride, n, w, mode int) {
	panic("tensor: AVX kernel called without AVX")
}

func matmulTARangeAVX(out, s *float32, sstride int, p *float32, pstride, n, w, mode int) {
	panic("tensor: AVX kernel called without AVX")
}

func matmulTBRangeAVX(out, s *float32, sstride int, p *float32, pstride, n, w, mode int) {
	panic("tensor: AVX kernel called without AVX")
}

func gatherMatMulTBRangeAVX(out, s *float32, sstride int, p *float32, pstride, n, w, mode int) {
	panic("tensor: AVX kernel called without AVX")
}

func matMulGatherRangeAVX(out, s *float32, sstride int, p *float32, pstride, n, w, mode int) {
	panic("tensor: AVX kernel called without AVX")
}

func gatherMatMulTBDequantRangeAVX(out, s *float32, sstride int, p *float32, pstride, n, w, mode int) {
	panic("tensor: AVX kernel called without AVX")
}
