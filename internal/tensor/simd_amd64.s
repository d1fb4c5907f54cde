#include "textflag.h"

// AVX micro-kernel for the dense float32 products (see simd.go). One body,
// PANELKERNEL, is stamped into one TEXT symbol per calling kernel so a CPU
// profile charges each product's time to a name that says which product
// it is. Labels are local to a TEXT symbol, so the copies do not clash.
//
// The kernel computes, for every lane l in [0, w):
//
//	acc   = out[l]        if mode&simdSeedOut, else +0
//	acc   = acc + s[j*sstride] * p[j*pstride + l]    for j = 0, 1, ..., n-1
//	out[l] = out[l] + acc if mode&simdAddOut, else acc
//
// skipping every j whose multiplier compares equal to zero when
// mode&simdSkipZero. Each lane is one output element and runs one rounded
// VMULPS and one rounded VADDPS per term in ascending j, exactly the
// MULSS+ADDSS sequence the portable Go loop compiles to; there is no FMA.
// Lanes go 32 at a time (four independent accumulators), then 8 at a
// time, then the last 1-7 under a VMASKMOVPS mask, which neither loads
// nor stores past the end of a row. Only VEX encodings are used, so no
// legacy-SSE instruction meets dirty upper YMM halves, and VZEROUPPER
// runs before returning.
//
// Registers: DI out, SI s, R8 s stride (bytes), DX p, R9 p stride (bytes),
// CX n, BX w, R10 mode, AX current lane, R11 counter, R12 out at the lane,
// R13 s cursor, R14 p cursor, Y14 tail mask, Y15 zero.

// lanemask holds eight all-ones lanes and then eight zero lanes; the eight
// lanes starting at lane 8-r enable exactly the first r.
DATA lanemask<>+0(SB)/8, $0xffffffffffffffff
DATA lanemask<>+8(SB)/8, $0xffffffffffffffff
DATA lanemask<>+16(SB)/8, $0xffffffffffffffff
DATA lanemask<>+24(SB)/8, $0xffffffffffffffff
DATA lanemask<>+32(SB)/8, $0
DATA lanemask<>+40(SB)/8, $0
DATA lanemask<>+48(SB)/8, $0
DATA lanemask<>+56(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $64

// TERM jumps to label skip when the multiplier in X4 compares equal to
// zero (ordered: a NaN multiplier is never skipped) and skipping is on.
#define TERM(do, skip) \
	TESTQ $4, R10; JZ do; \
	VUCOMISS X15, X4; JNE do; JPS do; JMP skip

#define PANELKERNEL \
	MOVQ out+0(FP), DI; \
	MOVQ s+8(FP), SI; \
	MOVQ sstride+16(FP), R8; \
	SHLQ $2, R8; \
	MOVQ p+24(FP), DX; \
	MOVQ pstride+32(FP), R9; \
	SHLQ $2, R9; \
	MOVQ n+40(FP), CX; \
	MOVQ w+48(FP), BX; \
	MOVQ mode+56(FP), R10; \
	VXORPS Y15, Y15, Y15; \
	XORQ AX, AX; \
b32: \
	MOVQ BX, R11; SUBQ AX, R11; CMPQ R11, $32; JLT b8; \
	LEAQ (DI)(AX*4), R12; \
	TESTQ $1, R10; JZ z32; \
	VMOVUPS (R12), Y0; VMOVUPS 32(R12), Y1; VMOVUPS 64(R12), Y2; VMOVUPS 96(R12), Y3; \
	JMP i32; \
z32: \
	VXORPS Y0, Y0, Y0; VXORPS Y1, Y1, Y1; VXORPS Y2, Y2, Y2; VXORPS Y3, Y3, Y3; \
i32: \
	MOVQ SI, R13; LEAQ (DX)(AX*4), R14; MOVQ CX, R11; \
l32: \
	TESTQ R11, R11; JZ e32; \
	VBROADCASTSS (R13), Y4; \
	TERM(m32, n32); \
m32: \
	VMULPS (R14), Y4, Y5; VADDPS Y5, Y0, Y0; \
	VMULPS 32(R14), Y4, Y6; VADDPS Y6, Y1, Y1; \
	VMULPS 64(R14), Y4, Y7; VADDPS Y7, Y2, Y2; \
	VMULPS 96(R14), Y4, Y8; VADDPS Y8, Y3, Y3; \
n32: \
	ADDQ R8, R13; ADDQ R9, R14; DECQ R11; JMP l32; \
e32: \
	TESTQ $2, R10; JZ s32; \
	VMOVUPS (R12), Y5; VADDPS Y0, Y5, Y0; \
	VMOVUPS 32(R12), Y6; VADDPS Y1, Y6, Y1; \
	VMOVUPS 64(R12), Y7; VADDPS Y2, Y7, Y2; \
	VMOVUPS 96(R12), Y8; VADDPS Y3, Y8, Y3; \
s32: \
	VMOVUPS Y0, (R12); VMOVUPS Y1, 32(R12); VMOVUPS Y2, 64(R12); VMOVUPS Y3, 96(R12); \
	ADDQ $32, AX; JMP b32; \
b8: \
	MOVQ BX, R11; SUBQ AX, R11; CMPQ R11, $8; JLT bt; \
	LEAQ (DI)(AX*4), R12; \
	TESTQ $1, R10; JZ z8; \
	VMOVUPS (R12), Y0; JMP i8; \
z8: \
	VXORPS Y0, Y0, Y0; \
i8: \
	MOVQ SI, R13; LEAQ (DX)(AX*4), R14; MOVQ CX, R11; \
l8: \
	TESTQ R11, R11; JZ e8; \
	VBROADCASTSS (R13), Y4; \
	TERM(m8, n8); \
m8: \
	VMULPS (R14), Y4, Y5; VADDPS Y5, Y0, Y0; \
n8: \
	ADDQ R8, R13; ADDQ R9, R14; DECQ R11; JMP l8; \
e8: \
	TESTQ $2, R10; JZ s8; \
	VMOVUPS (R12), Y5; VADDPS Y0, Y5, Y0; \
s8: \
	VMOVUPS Y0, (R12); \
	ADDQ $8, AX; JMP b8; \
bt: \
	MOVQ BX, R11; SUBQ AX, R11; JLE done; \
	LEAQ lanemask<>(SB), R12; MOVQ $8, R13; SUBQ R11, R13; \
	VMOVUPS (R12)(R13*4), Y14; \
	LEAQ (DI)(AX*4), R12; \
	TESTQ $1, R10; JZ zt; \
	VMASKMOVPS (R12), Y14, Y0; JMP it; \
zt: \
	VXORPS Y0, Y0, Y0; \
it: \
	MOVQ SI, R13; LEAQ (DX)(AX*4), R14; MOVQ CX, R11; \
lt: \
	TESTQ R11, R11; JZ et; \
	VBROADCASTSS (R13), Y4; \
	TERM(mt, nt); \
mt: \
	VMASKMOVPS (R14), Y14, Y5; VMULPS Y5, Y4, Y5; VADDPS Y5, Y0, Y0; \
nt: \
	ADDQ R8, R13; ADDQ R9, R14; DECQ R11; JMP lt; \
et: \
	TESTQ $2, R10; JZ st; \
	VMASKMOVPS (R12), Y14, Y5; VADDPS Y0, Y5, Y0; \
st: \
	VMASKMOVPS Y0, Y14, (R12); \
done: \
	VZEROUPPER; \
	RET

// func matmulRangeAVX(out, s *float32, sstride int, p *float32, pstride, n, w, mode int)
TEXT ·matmulRangeAVX(SB), NOSPLIT, $0-64
	PANELKERNEL

// func matmulTARangeAVX(out, s *float32, sstride int, p *float32, pstride, n, w, mode int)
TEXT ·matmulTARangeAVX(SB), NOSPLIT, $0-64
	PANELKERNEL

// func matmulTBRangeAVX(out, s *float32, sstride int, p *float32, pstride, n, w, mode int)
TEXT ·matmulTBRangeAVX(SB), NOSPLIT, $0-64
	PANELKERNEL

// func gatherMatMulTBRangeAVX(out, s *float32, sstride int, p *float32, pstride, n, w, mode int)
TEXT ·gatherMatMulTBRangeAVX(SB), NOSPLIT, $0-64
	PANELKERNEL

// func matMulGatherRangeAVX(out, s *float32, sstride int, p *float32, pstride, n, w, mode int)
TEXT ·matMulGatherRangeAVX(SB), NOSPLIT, $0-64
	PANELKERNEL

// func gatherMatMulTBDequantRangeAVX(out, s *float32, sstride int, p *float32, pstride, n, w, mode int)
TEXT ·gatherMatMulTBDequantRangeAVX(SB), NOSPLIT, $0-64
	PANELKERNEL

// func hasAVX() bool
//
// CPUID.1:ECX must report AVX (bit 28) and OSXSAVE (bit 27), and XCR0 must
// show the OS saving both XMM and YMM state (bits 1 and 2).
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET
