// Package graph defines the edge-list graph representation, the CSR
// adjacency index used for neighborhood sampling, and task metadata
// (features/labels for node classification, edge splits for link
// prediction).
//
// Following MariusGNN §4.1, the sampling index keeps two sorted views of the
// in-memory edge list — one sorted by source node and one by destination
// node — with per-node offset arrays, so incoming and outgoing neighbors of
// any node can be sampled in O(fanout).
package graph

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Edge is a (source, relation, destination) triple. Rel is 0 for graphs
// without relation types.
type Edge struct {
	Src, Rel, Dst int32
}

// Graph is an in-memory graph with optional task metadata.
type Graph struct {
	NumNodes int
	NumRels  int // number of relation types; 1 for untyped graphs
	Edges    []Edge

	// Node classification metadata (nil/empty when unused).
	Features   *tensor.Tensor // [NumNodes x FeatureDim] fixed base representations
	Labels     []int32        // class per node, -1 if unlabeled
	NumClasses int
	TrainNodes []int32
	ValidNodes []int32
	TestNodes  []int32

	// Link prediction held-out splits (training edges are Edges).
	ValidEdges []Edge
	TestEdges  []Edge
}

// FeatureDim returns the base representation dimensionality, or 0.
func (g *Graph) FeatureDim() int {
	if g.Features == nil {
		return 0
	}
	return g.Features.Cols
}

// Validate checks internal consistency and returns a descriptive error.
func (g *Graph) Validate() error {
	check := func(edges []Edge, what string) error {
		for i, e := range edges {
			if e.Src < 0 || int(e.Src) >= g.NumNodes || e.Dst < 0 || int(e.Dst) >= g.NumNodes {
				return fmt.Errorf("graph: %s edge %d endpoints (%d,%d) out of range [0,%d)", what, i, e.Src, e.Dst, g.NumNodes)
			}
			if e.Rel < 0 || int(e.Rel) >= max(g.NumRels, 1) {
				return fmt.Errorf("graph: %s edge %d relation %d out of range [0,%d)", what, i, e.Rel, g.NumRels)
			}
		}
		return nil
	}
	if err := check(g.Edges, "train"); err != nil {
		return err
	}
	if err := check(g.ValidEdges, "valid"); err != nil {
		return err
	}
	if err := check(g.TestEdges, "test"); err != nil {
		return err
	}
	if g.Features != nil && g.Features.Rows != g.NumNodes {
		return fmt.Errorf("graph: features rows %d != nodes %d", g.Features.Rows, g.NumNodes)
	}
	if g.Labels != nil && len(g.Labels) != g.NumNodes {
		return fmt.Errorf("graph: labels len %d != nodes %d", len(g.Labels), g.NumNodes)
	}
	for _, v := range g.TrainNodes {
		if v < 0 || int(v) >= g.NumNodes {
			return fmt.Errorf("graph: train node %d out of range", v)
		}
	}
	return nil
}

// Adjacency is the CSR sampling index of §4.1: the edge list sorted by
// source with per-node outgoing offsets, and sorted by destination with
// per-node incoming offsets. It may index a subgraph (only the in-memory
// edges) while node IDs remain global.
type Adjacency struct {
	numNodes int
	outOff   []int32 // len numNodes+1; outgoing edge range of node v
	outDst   []int32 // destination of each outgoing edge, grouped by src
	outRel   []int32 // relation of each outgoing edge, parallel to outDst
	inOff    []int32 // len numNodes+1; incoming edge range of node v
	inSrc    []int32 // source of each incoming edge, grouped by dst
	inRel    []int32 // relation of each incoming edge, parallel to inSrc
}

// BuildAdjacency builds the two sorted edge-list views over edges via
// counting sort; numNodes bounds the global node ID space. Edge relations
// ride along in parallel arrays: the same stable sort places OutRels(v)[i]
// next to OutNeighbors(v)[i], so relation-aware consumers (the filtered
// ranking evaluator, the serving filter) read typed neighbor lists with
// no extra index.
func BuildAdjacency(numNodes int, edges []Edge) *Adjacency {
	a := &Adjacency{
		numNodes: numNodes,
		outOff:   make([]int32, numNodes+1),
		inOff:    make([]int32, numNodes+1),
		outDst:   make([]int32, len(edges)),
		outRel:   make([]int32, len(edges)),
		inSrc:    make([]int32, len(edges)),
		inRel:    make([]int32, len(edges)),
	}
	for _, e := range edges {
		a.outOff[e.Src+1]++
		a.inOff[e.Dst+1]++
	}
	for v := 0; v < numNodes; v++ {
		a.outOff[v+1] += a.outOff[v]
		a.inOff[v+1] += a.inOff[v]
	}
	outCur := make([]int32, numNodes)
	inCur := make([]int32, numNodes)
	for _, e := range edges {
		o := a.outOff[e.Src] + outCur[e.Src]
		a.outDst[o] = e.Dst
		a.outRel[o] = e.Rel
		outCur[e.Src]++
		i := a.inOff[e.Dst] + inCur[e.Dst]
		a.inSrc[i] = e.Src
		a.inRel[i] = e.Rel
		inCur[e.Dst]++
	}
	return a
}

// NumNodes returns the node ID space size the index was built over.
func (a *Adjacency) NumNodes() int { return a.numNodes }

// NumEdges returns the number of indexed edges.
func (a *Adjacency) NumEdges() int { return len(a.outDst) }

// OutNeighbors returns the outgoing neighbor list of v (a view).
func (a *Adjacency) OutNeighbors(v int32) []int32 {
	return a.outDst[a.outOff[v]:a.outOff[v+1]]
}

// InNeighbors returns the incoming neighbor list of v (a view).
func (a *Adjacency) InNeighbors(v int32) []int32 {
	return a.inSrc[a.inOff[v]:a.inOff[v+1]]
}

// OutRels returns the relations of v's outgoing edges (a view), parallel
// to OutNeighbors.
func (a *Adjacency) OutRels(v int32) []int32 {
	return a.outRel[a.outOff[v]:a.outOff[v+1]]
}

// InRels returns the relations of v's incoming edges (a view), parallel
// to InNeighbors.
func (a *Adjacency) InRels(v int32) []int32 {
	return a.inRel[a.inOff[v]:a.inOff[v+1]]
}

// OutDegree returns the outgoing degree of v.
func (a *Adjacency) OutDegree(v int32) int { return int(a.outOff[v+1] - a.outOff[v]) }

// InDegree returns the incoming degree of v.
func (a *Adjacency) InDegree(v int32) int { return int(a.inOff[v+1] - a.inOff[v]) }

// AppendOutNeighbors appends the outgoing neighbor list of v to dst.
func (a *Adjacency) AppendOutNeighbors(dst []int32, v int32) []int32 {
	return append(dst, a.OutNeighbors(v)...)
}

// AppendInNeighbors appends the incoming neighbor list of v to dst.
func (a *Adjacency) AppendInNeighbors(dst []int32, v int32) []int32 {
	return append(dst, a.InNeighbors(v)...)
}

// Directions selects which edge directions a sampler follows.
type Directions int

const (
	// Outgoing samples destination nodes of edges leaving v.
	Outgoing Directions = 1 << iota
	// Incoming samples source nodes of edges entering v.
	Incoming
	// Both samples incoming and outgoing neighbors.
	Both = Outgoing | Incoming
)

// Index is the neighborhood-sampling interface shared by the from-scratch
// CSR (*Adjacency) and the incremental bucket-segmented view (*Segmented).
// Both expose identical neighbor ordering for the same in-memory edge set,
// so samplers driven through this interface produce identical samples for
// a given RNG state regardless of which index backs them.
type Index interface {
	NumNodes() int
	NumEdges() int
	OutDegree(v int32) int
	InDegree(v int32) int
	AppendOutNeighbors(dst []int32, v int32) []int32
	AppendInNeighbors(dst []int32, v int32) []int32
	SampleNeighbors(dst []int32, v int32, fanout int, dirs Directions, rng *rand.Rand, sc *SampleScratch) []int32
}

// SampleScratch is the caller-owned workspace of Floyd sampling: a
// generation-stamped membership test over candidate indices (replacing
// the per-call map allocation) plus the segment-gather buffer of the
// bucket-segmented index. The zero value is ready to use; a scratch is
// not safe for concurrent use (each sampler owns one).
type SampleScratch struct {
	stamp []uint32
	gen   uint32
	segs  [][]int32 // non-empty per-bucket segments of the current node
	flat  []int32   // small segmented pools flattened for direct indexing
}

// begin starts a fresh selection over a pool of n candidates.
func (sc *SampleScratch) begin(n int) {
	if len(sc.stamp) < n {
		grown := make([]uint32, n+n/2+8)
		copy(grown, sc.stamp)
		sc.stamp = grown
	}
	sc.gen++
	if sc.gen == 0 { // wrapped: invalidate every stamp
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.gen = 1
	}
}

// taken reports whether candidate t was already chosen, marking it chosen.
func (sc *SampleScratch) taken(t int32) bool {
	if sc.stamp[t] == sc.gen {
		return true
	}
	sc.stamp[t] = sc.gen
	return false
}

// SampleNeighbors appends up to fanout uniformly-sampled distinct neighbors
// of v per enabled direction to dst and returns the extended slice. When a
// direction has no more than fanout neighbors, all of them are returned
// (paper §4.1 semantics). sc is the caller's reusable scratch; nil is
// allowed and allocates a temporary.
func (a *Adjacency) SampleNeighbors(dst []int32, v int32, fanout int, dirs Directions, rng *rand.Rand, sc *SampleScratch) []int32 {
	if sc == nil {
		sc = &SampleScratch{}
	}
	if dirs&Outgoing != 0 {
		dst = sampleFrom(dst, a.OutNeighbors(v), fanout, rng, sc)
	}
	if dirs&Incoming != 0 {
		dst = sampleFrom(dst, a.InNeighbors(v), fanout, rng, sc)
	}
	return dst
}

// sampleFrom appends min(fanout, len(pool)) distinct elements of pool to
// dst using Floyd's sampling algorithm for the subsampled case.
func sampleFrom(dst []int32, pool []int32, fanout int, rng *rand.Rand, sc *SampleScratch) []int32 {
	if len(pool) <= fanout {
		return append(dst, pool...)
	}
	return floydSample(dst, flatPool(pool), len(pool), fanout, rng, sc)
}

// neighborPool is random access into a (possibly segmented) neighbor list.
type neighborPool interface {
	at(t int32) int32
}

// flatPool adapts a contiguous neighbor slice to neighborPool.
type flatPool []int32

func (p flatPool) at(t int32) int32 { return p[t] }

// floydSample appends a uniform fanout-subset of the n-element pool to dst
// via Floyd's algorithm: for j in [n-fanout, n), pick t in [0, j]; take t
// unless already taken, else take j. The generic pool keeps the hot path
// free of interface boxing; the pick sequence for a given rng state is
// identical for every pool backing the same element order.
func floydSample[P neighborPool](dst []int32, pool P, n, fanout int, rng *rand.Rand, sc *SampleScratch) []int32 {
	sc.begin(n)
	for j := n - fanout; j < n; j++ {
		t := int32(rng.Intn(j + 1))
		if sc.taken(t) {
			t = int32(j)
			sc.taken(t)
		}
		dst = append(dst, pool.at(t))
	}
	return dst
}
