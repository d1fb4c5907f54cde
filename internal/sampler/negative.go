package sampler

import "math/rand"

// NegativeSampler draws negative example nodes for link prediction
// training and evaluation. Following Marius/MariusGNN, negatives for a
// batch are a shared set of uniformly-sampled node IDs reused across every
// positive edge in the batch, which keeps the decoder computation dense.
//
// For disk-based training the candidate pool is restricted to the nodes of
// the partitions currently in memory (paper §3: "neighborhood sampling is
// performed only over graph nodes and edges in main memory"); the same
// restriction applies to negatives.
type NegativeSampler struct {
	rng *rand.Rand

	// candidates is the ID pool negatives are drawn from.
	candidates []int32
}

// NewNegativePool samples negatives uniformly from the given candidate
// pool (e.g., the in-memory nodes during disk-based training).
func NewNegativePool(candidates []int32, seed int64) *NegativeSampler {
	return &NegativeSampler{rng: rand.New(rand.NewSource(seed)), candidates: candidates}
}

// SetPool replaces the candidate pool (used after partition swaps).
func (ns *NegativeSampler) SetPool(candidates []int32) { ns.candidates = candidates }

// Reseed re-seeds the sampler's RNG in place (per-batch determinism, as
// Sampler.Reseed).
func (ns *NegativeSampler) Reseed(seed int64) { ns.rng.Seed(seed) }

// Sample appends n negative node IDs to dst and returns the extended slice.
func (ns *NegativeSampler) Sample(dst []int32, n int) []int32 {
	for i := 0; i < n; i++ {
		dst = append(dst, ns.candidates[ns.rng.Intn(len(ns.candidates))])
	}
	return dst
}
