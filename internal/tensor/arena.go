package tensor

// Arena is a bump allocator for the tensors of one training step. A trainer
// owns one Arena per compute stage: every activation and gradient buffer of
// a mini batch is carved out of the arena's slabs, and Reset at the end of
// the batch recycles all of them at once. After warm-up (the first few
// batches grow the slab list to the steady-state footprint) an
// Alloc/Reset cycle performs zero heap allocations.
//
// Ownership rules:
//
//   - Every *Tensor returned by Alloc — and, transitively, every tensor a
//     Tape backed by this arena produces (op outputs, gradients) — is owned
//     by the arena and is invalidated by Reset. Consume values and
//     gradients (optimizer steps, metrics, write-back) before resetting.
//   - To keep data beyond Reset, Clone it: Clone always heap-allocates.
//   - An Arena is not safe for concurrent use. It belongs to exactly one
//     goroutine at a time — in training, the compute stage; the sampling
//     workers heap-allocate their own batch buffers.
//
// Alloc zeroes the returned buffer, matching New's semantics, so kernels
// that accumulate into fresh outputs behave identically on both paths.
type Arena struct {
	slabs [][]float32
	slab  int // index of the slab currently carved
	off   int // floats consumed from slabs[slab]

	// Tensor headers are pooled in fixed-size chunks so previously returned
	// pointers stay valid while the pool grows.
	hdrs   [][]Tensor
	hchunk int
	hoff   int
}

const (
	// arenaSlabFloats is the default slab size (1 MiB of float32s).
	arenaSlabFloats = 1 << 18
	// arenaHdrChunk is the number of Tensor headers per pool chunk.
	arenaHdrChunk = 256
)

// NewArena returns an empty arena; slabs are allocated on demand.
func NewArena() *Arena { return &Arena{} }

// Alloc returns a zeroed rows x cols tensor owned by the arena.
func (a *Arena) Alloc(rows, cols int) *Tensor {
	if rows < 0 || cols < 0 {
		panic("tensor: Arena.Alloc negative shape")
	}
	t := a.hdr()
	t.Rows, t.Cols = rows, cols
	t.Data = a.take(rows * cols)
	return t
}

// Reset recycles every tensor handed out since the previous Reset. The
// slabs and header chunks are retained, so a steady-state Alloc/Reset cycle
// does not touch the heap.
func (a *Arena) Reset() {
	a.slab, a.off = 0, 0
	a.hchunk, a.hoff = 0, 0
}

// take carves n zeroed floats out of the slab list, growing it if needed.
func (a *Arena) take(n int) []float32 {
	if n == 0 {
		return nil
	}
	for a.slab < len(a.slabs) && len(a.slabs[a.slab])-a.off < n {
		a.slab++
		a.off = 0
	}
	if a.slab == len(a.slabs) {
		size := arenaSlabFloats
		if n > size {
			size = n
		}
		a.slabs = append(a.slabs, make([]float32, size))
		a.off = 0
	}
	buf := a.slabs[a.slab][a.off : a.off+n : a.off+n]
	a.off += n
	clear(buf)
	return buf
}

// hdr returns a pooled Tensor header.
func (a *Arena) hdr() *Tensor {
	if a.hchunk == len(a.hdrs) {
		a.hdrs = append(a.hdrs, make([]Tensor, arenaHdrChunk))
	}
	t := &a.hdrs[a.hchunk][a.hoff]
	a.hoff++
	if a.hoff == arenaHdrChunk {
		a.hchunk++
		a.hoff = 0
	}
	return t
}
