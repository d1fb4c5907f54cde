package train

import (
	"math/rand"
	"sync"

	"repro/internal/policy"
	"repro/internal/storage"
)

// visitSeeds derives one independent seed per visit from the epoch RNG,
// in plan order, before any stage runs. Each visit's shuffles, batch
// splits and per-batch sampler seeds come from its own seed, so a visit's
// batch sequence is a pure function of (epoch seed, plan, visit index) —
// the property that lets the pipeline build batches ahead of (and
// concurrently with) the compute stage without changing the trajectory.
func visitSeeds(rng *rand.Rand, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return seeds
}

// clampDepth bounds the configured pipeline depth for one epoch's plan:
// the prefetcher stages the partitions of up to depth upcoming visits,
// and that demand must fit the disk store's staging pool (one buffer per
// buffer-capacity slot), per Plan.VerifyLookahead. In-memory sources
// stage nothing, so the configured depth stands.
func clampDepth(depth int, plan *policy.Plan, disk *storage.DiskNodeStore) int {
	if depth <= 0 || disk == nil {
		return depth
	}
	if m := plan.MaxLookahead(disk.Capacity()); m < depth {
		return m
	}
	return depth
}

// batchSeeds derives one seed per mini batch from a visit RNG. Workers
// reseed their samplers with batchSeeds[bi] before building batch bi.
func batchSeeds(vrng *rand.Rand, nBatches int) []int64 {
	seeds := make([]int64, nBatches)
	for i := range seeds {
		seeds[i] = vrng.Int63()
	}
	return seeds
}

// slicePool recycles buffers across visits so the prefetcher does not
// allocate a fresh slice per visit. It is shared between the prefetcher
// and compute goroutines (Release may run on either side), so it is
// mutex-guarded; the pool is bounded — overflow buffers fall to GC.
type slicePool[T any] struct {
	mu   sync.Mutex
	bufs [][]T
}

const slicePoolCap = 8

// get returns an empty buffer with whatever capacity a prior visit left
// behind (nil when the pool is empty — append grows it).
func (p *slicePool[T]) get() []T {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.bufs); n > 0 {
		b := p.bufs[n-1]
		p.bufs = p.bufs[:n-1]
		return b[:0]
	}
	return nil
}

// put returns a buffer to the pool.
func (p *slicePool[T]) put(b []T) {
	if cap(b) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.bufs) < slicePoolCap {
		p.bufs = append(p.bufs, b)
	}
}
