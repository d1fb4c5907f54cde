package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuildAdjacencyMatchesEdgeList(t *testing.T) {
	edges := []Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 0},
		{Src: 3, Dst: 0}, {Src: 2, Dst: 3}, {Src: 0, Dst: 1}, // duplicate edge kept
	}
	a := BuildAdjacency(4, edges)
	if a.NumEdges() != 6 {
		t.Fatalf("edges = %d", a.NumEdges())
	}
	if got := a.OutNeighbors(0); len(got) != 3 {
		t.Fatalf("out(0) = %v", got)
	}
	if got := a.InNeighbors(0); len(got) != 2 {
		t.Fatalf("in(0) = %v", got)
	}
	if a.OutDegree(3) != 1 || a.InDegree(3) != 1 {
		t.Fatal("degrees wrong")
	}
	if a.OutDegree(1) != 1 || a.InDegree(1) != 2 {
		t.Fatal("node 1 degrees wrong")
	}
}

func TestAdjacencyPreservesMultiplicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 2
		m := rng.Intn(300)
		edges := make([]Edge, m)
		outDeg := make([]int, n)
		inDeg := make([]int, n)
		for i := range edges {
			e := Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
			edges[i] = e
			outDeg[e.Src]++
			inDeg[e.Dst]++
		}
		a := BuildAdjacency(n, edges)
		for v := 0; v < n; v++ {
			if a.OutDegree(int32(v)) != outDeg[v] || a.InDegree(int32(v)) != inDeg[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleNeighborsRespectsFanoutAndMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := make([]Edge, 500)
	for i := range edges {
		edges[i] = Edge{Src: int32(rng.Intn(20)), Dst: int32(rng.Intn(20))}
	}
	a := BuildAdjacency(20, edges)
	for v := int32(0); v < 20; v++ {
		for _, fanout := range []int{1, 3, 10, 1000} {
			got := a.SampleNeighbors(nil, v, fanout, Outgoing, rng, nil)
			wantLen := min(fanout, a.OutDegree(v))
			if len(got) != wantLen {
				t.Fatalf("node %d fanout %d: got %d, want %d", v, fanout, len(got), wantLen)
			}
			pool := map[int32]int{}
			for _, u := range a.OutNeighbors(v) {
				pool[u]++
			}
			for _, u := range got {
				if pool[u] == 0 {
					t.Fatalf("sampled non-neighbor %d (or exceeded multiplicity)", u)
				}
				pool[u]--
			}
		}
	}
}

func TestSampleNeighborsBothDirections(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := BuildAdjacency(3, []Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 0}})
	got := a.SampleNeighbors(nil, 0, 5, Both, rng, nil)
	if len(got) != 2 {
		t.Fatalf("both dirs = %v", got)
	}
}

func TestSampleIsApproximatelyUniform(t *testing.T) {
	// Floyd sampling over 10 neighbors choosing 2: each neighbor should be
	// chosen ~20% of the time.
	edges := make([]Edge, 10)
	for i := range edges {
		edges[i] = Edge{Src: 0, Dst: int32(i + 1)}
	}
	a := BuildAdjacency(11, edges)
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, 11)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, u := range a.SampleNeighbors(nil, 0, 2, Outgoing, rng, nil) {
			counts[u]++
		}
	}
	for u := 1; u <= 10; u++ {
		frac := float64(counts[u]) / float64(2*trials)
		if frac < 0.07 || frac > 0.13 {
			t.Fatalf("neighbor %d sampled with frequency %.3f, want ≈0.10", u, frac)
		}
	}
}

func TestGraphValidate(t *testing.T) {
	g := &Graph{NumNodes: 3, NumRels: 1, Edges: []Edge{{Src: 0, Dst: 2}}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.Edges = append(g.Edges, Edge{Src: 0, Dst: 5})
	if g.Validate() == nil {
		t.Fatal("out-of-range edge accepted")
	}
	g.Edges = g.Edges[:1]
	g.TrainNodes = []int32{7}
	if g.Validate() == nil {
		t.Fatal("out-of-range train node accepted")
	}
}
