package sampler

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// paperGraph builds the six-node example of paper Figures 1 and 3, where
// the two-hop incoming neighborhood of targets {A, B} uses samples
// C,D ← A and the reuse of A's one-hop sample across both layers.
// Nodes: A=0 B=1 C=2 D=3 E=4 F=5. Edges point src→dst; sampling follows
// incoming edges (aggregation gathers from in-neighbors).
func paperGraph() *graph.Adjacency {
	edges := []graph.Edge{
		{Src: 2, Dst: 0}, // C → A
		{Src: 3, Dst: 0}, // D → A
		{Src: 0, Dst: 1}, // A → B
		{Src: 1, Dst: 0}, // B → A  (extra cycle keeps reuse interesting)
		{Src: 4, Dst: 2}, // E → C
		{Src: 2, Dst: 3}, // C → D
		{Src: 5, Dst: 4}, // F → E
	}
	return graph.BuildAdjacency(6, edges)
}

func TestDENSEPaperExample(t *testing.T) {
	adj := paperGraph()
	s := New(adj, []int{10, 10}, graph.Incoming, 1)
	d := s.Sample([]int32{0, 1})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Δ2 (targets) must be {A, B} in order.
	if got := d.Targets(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("targets = %v", got)
	}
	if d.NumDeltas() != 3 {
		t.Fatalf("deltas = %d, want 3", d.NumDeltas())
	}
	// Every neighbor must resolve through ReprMap to itself.
	for i, nbr := range d.Nbrs {
		if d.NodeIDs[d.ReprMap[i]] != nbr {
			t.Fatalf("ReprMap broken at %d", i)
		}
	}
	// One-hop reuse: node A appears in Δ2; its in-neighbors {C, D, B}
	// should be sampled exactly once even though A's representation is
	// needed in both layers.
	countA := 0
	offs := d.NbrOffsets
	withNbrs := d.NodeIDs[d.OutputStart():]
	for i, v := range withNbrs {
		if v == 0 {
			countA++
			end := len(d.Nbrs)
			if i+1 < len(offs) {
				end = int(offs[i+1])
			}
			if got := end - int(offs[i]); got != 3 {
				t.Fatalf("A has %d sampled in-neighbors, want 3", got)
			}
		}
	}
	if countA != 1 {
		t.Fatalf("node A appears %d times in neighbor-bearing groups, want 1 (sample reuse)", countA)
	}
}

func TestDENSEInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 10
		edges := make([]graph.Edge, rng.Intn(1000)+50)
		for i := range edges {
			edges[i] = graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
		}
		adj := graph.BuildAdjacency(n, edges)
		layers := rng.Intn(3) + 1
		fanouts := make([]int, layers)
		for i := range fanouts {
			fanouts[i] = rng.Intn(5) + 1
		}
		s := New(adj, fanouts, graph.Both, seed)
		targets := uniqueTargets(rng, n, rng.Intn(20)+1)
		d := s.Sample(targets)
		if d.Validate() != nil {
			return false
		}
		// Fanout cap: each node's neighbor segment holds at most
		// 2*max(fanouts) entries (both directions).
		maxF := 0
		for _, f := range fanouts {
			if f > maxF {
				maxF = f
			}
		}
		for i := range d.NbrOffsets {
			end := len(d.Nbrs)
			if i+1 < len(d.NbrOffsets) {
				end = int(d.NbrOffsets[i+1])
			}
			if end-int(d.NbrOffsets[i]) > 2*maxF {
				return false
			}
		}
		// Advancing through all layers must keep the structure valid and
		// finish with the targets as the only remaining group.
		for l := 0; l < layers-1; l++ {
			d.AdvanceLayer()
			if d.Validate() != nil {
				return false
			}
		}
		last := d.Targets()
		if len(last) != len(targets) {
			return false
		}
		for i := range last {
			if last[i] != targets[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func uniqueTargets(rng *rand.Rand, n, k int) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for len(out) < k && len(out) < n {
		v := int32(rng.Intn(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func TestDENSEDeltasAreDisjointAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	adj := graph.BuildAdjacency(100, randomEdges(rng, 100, 500))
	s := New(adj, []int{3, 3, 3}, graph.Both, 7)
	d := s.Sample(uniqueTargets(rng, 100, 8))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every sampled neighbor must already be somewhere in NodeIDs — that
	// is the definition of the delta encoding.
	inIDs := map[int32]bool{}
	for _, v := range d.NodeIDs {
		inIDs[v] = true
	}
	for _, u := range d.Nbrs {
		if !inIDs[u] {
			t.Fatalf("neighbor %d missing from NodeIDs", u)
		}
	}
}

func randomEdges(rng *rand.Rand, n, m int) []graph.Edge {
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
	}
	return edges
}

func TestDENSESamplesFewerThanLayered(t *testing.T) {
	// The headline Table 6 property: with deep GNNs, DENSE samples fewer
	// node entries than per-layer re-sampling on the same graph.
	rng := rand.New(rand.NewSource(9))
	adj := graph.BuildAdjacency(2000, randomEdges(rng, 2000, 30000))
	fanouts := []int{10, 10, 10}
	targets := uniqueTargets(rng, 2000, 64)

	d := New(adj, fanouts, graph.Both, 1).Sample(targets)
	ls := NewLayered(adj, fanouts, graph.Both, 1).Sample(targets)

	if d.NumNodes() >= ls.NumNodesSampled() {
		t.Fatalf("DENSE sampled %d node entries, layered %d; DENSE should be smaller",
			d.NumNodes(), ls.NumNodesSampled())
	}
	if d.NumSampledEdges() >= ls.NumEdgesSampled() {
		t.Fatalf("DENSE sampled %d edges, layered %d; DENSE should be smaller",
			d.NumSampledEdges(), ls.NumEdgesSampled())
	}
}

func TestLayeredSampleStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	adj := graph.BuildAdjacency(300, randomEdges(rng, 300, 2000))
	targets := uniqueTargets(rng, 300, 10)
	ls := NewLayered(adj, []int{4, 4}, graph.Both, 3).Sample(targets)
	if len(ls.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(ls.Blocks))
	}
	// Final block's DstNodes are the targets.
	last := ls.Blocks[len(ls.Blocks)-1]
	for i, v := range targets {
		if last.DstNodes[i] != v {
			t.Fatal("targets not preserved")
		}
	}
	for bi, b := range ls.Blocks {
		// SrcNodes start with DstNodes (self rows first).
		for i := range b.DstNodes {
			if b.SrcNodes[i] != b.DstNodes[i] {
				t.Fatalf("block %d: SrcNodes must begin with DstNodes", bi)
			}
		}
		for e := range b.EdgeSrc {
			if int(b.EdgeSrc[e]) >= len(b.SrcNodes) || int(b.EdgeDst[e]) >= len(b.DstNodes) {
				t.Fatalf("block %d: edge index out of range", bi)
			}
		}
		// Chained blocks: this block's SrcNodes are the next-inner block's
		// DstNodes.
		if bi > 0 {
			inner := ls.Blocks[bi-1]
			if len(inner.DstNodes) != len(b.SrcNodes) {
				t.Fatalf("block chain broken at %d", bi)
			}
		}
	}
}

func TestKHopBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	adj := graph.BuildAdjacency(500, randomEdges(rng, 500, 20000))
	targets := uniqueTargets(rng, 500, 32)

	unlimited := NewKHop(adj, []int{10, 10, 10}, graph.Outgoing, 0, 1)
	ks, err := unlimited.Sample(targets)
	if err != nil {
		t.Fatal(err)
	}
	if ks.TotalEntries() <= len(targets) {
		t.Fatal("k-hop sample did not expand")
	}

	limited := NewKHop(adj, []int{10, 10, 10}, graph.Outgoing, len(targets)+1, 1)
	if _, err := limited.Sample(targets); err != ErrBudget {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestNegativeSampler(t *testing.T) {
	pool := []int32{3, 7, 11}
	p := NewNegativePool(pool, 2)
	ids := p.Sample(nil, 100)
	if len(ids) != 100 {
		t.Fatal("wrong count")
	}
	for _, v := range ids {
		if v != 3 && v != 7 && v != 11 {
			t.Fatalf("id %d not in pool", v)
		}
	}
}
