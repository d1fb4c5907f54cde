package tensor

// Dispatch between the AVX micro-kernel and the portable Go loops.
//
// The dense float32 products (matmulRange, matmulTARange, matmulTBRange,
// gatherMatMulTBRange, matMulGatherRange, gatherMatMulTBDequantRange) run
// on the AVX kernel when the CPU has it, and on their portable Go loops
// otherwise — on other architectures, on CPUs without AVX, and for widths
// too large for a panel. The two paths are bitwise identical (see the
// package header in tensor.go), so which one runs never changes a result;
// the differential tests require it.

// Kernel modes (bit flags of the micro-kernel's mode argument).
const (
	// simdSeedOut starts each accumulator from the current output value
	// instead of +0.
	simdSeedOut = 1 << iota
	// simdAddOut adds each finished (+0-seeded) accumulator onto the
	// output in one addition: out[l] = out[l] + acc.
	simdAddOut
	// simdSkipZero skips every term whose multiplier compares equal to
	// zero, as the portable axpy loops do.
	simdSkipZero
)

// panelFloats is the capacity of a kernel's stack panel: the block of
// candidate rows a dot-product or gather kernel copies, transposes or
// dequantizes before handing it to the micro-kernel. 16 KiB keeps the
// panel in L1.
const panelFloats = 4096

// maxPanelWidth caps a transposed panel at 64 output columns: two passes
// of the micro-kernel's 32-lane block per query row.
const maxPanelWidth = 64

// portableOnly forces the portable loops even where AVX is available.
var portableOnly bool

// SetPortableForTesting forces every converted kernel onto its portable Go
// loop (on == true) or back to the AVX kernel where the CPU has it, and
// returns the previous setting. It exists for differential tests, which run
// a suite both ways; it must not be called while kernels are running.
func SetPortableForTesting(on bool) (prev bool) {
	prev, portableOnly = portableOnly, on
	return prev
}

// useSIMD reports whether the AVX kernel should run.
func useSIMD() bool { return haveAVX && !portableOnly }

// panelWidth returns how many candidate rows of width k fill a transposed
// [k x width] panel: up to maxPanelWidth, in whole 32-lane blocks when
// at least one fits (narrower lane groups run one accumulator chain and
// so at a quarter of the throughput), else in 8-lane groups. It is 0 when
// the AVX kernel is off or k is zero or wider than panelFloats/8, and the
// caller then takes its portable loop.
func panelWidth(k int) int {
	if !useSIMD() || k == 0 {
		return 0
	}
	w := panelFloats / k
	if w >= 32 {
		return min(maxPanelWidth, w&^31)
	}
	return w &^ 7
}
