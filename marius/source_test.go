package marius_test

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/marius"
)

// countingNodes and countingEdges count the calls routed through a
// session's stores after they are swapped in behind Task().Source().
type countingNodes struct {
	storage.NodeStore
	gathers, applies atomic.Int64
}

func (c *countingNodes) Gather(ids []int32, out *tensor.Tensor) error {
	c.gathers.Add(1)
	return c.NodeStore.Gather(ids, out)
}

func (c *countingNodes) ApplyGrads(ids []int32, grads *tensor.Tensor, opt *nn.SparseAdaGrad) error {
	c.applies.Add(1)
	return c.NodeStore.ApplyGrads(ids, grads, opt)
}

type countingEdges struct {
	storage.EdgeStore
	reads atomic.Int64
}

func (c *countingEdges) ReadBucket(i, j int, dst []graph.Edge) ([]graph.Edge, error) {
	c.reads.Add(1)
	return c.EdgeStore.ReadBucket(i, j, dst)
}

// TestSourceReadAtCallTime pins the contract that the trainer reads
// Source().Nodes and Source().Edges on every call rather than caching
// them at construction: wrapping both stores after New must see the
// epoch's representation gathers, LP's embedding write-back and the
// visit-edge reads. Benchmarks time the storage layer this way.
func TestSourceReadAtCallTime(t *testing.T) {
	cases := []struct {
		name  string
		lp    bool
		build func(t *testing.T, dir string) *marius.Session
	}{
		{name: "lp-mem", lp: true, build: func(t *testing.T, dir string) *marius.Session { return lpSession(t, false, dir) }},
		{name: "lp-disk", lp: true, build: func(t *testing.T, dir string) *marius.Session { return lpSession(t, true, dir) }},
		{name: "nc", build: func(t *testing.T, dir string) *marius.Session {
			sess, err := marius.New(marius.NodeClassification(), gen.SBM(*smallNC(71)),
				marius.WithFanouts(6, 6), marius.WithDim(16), marius.WithBatchSize(128),
				marius.WithWorkers(2), marius.WithSeed(71))
			if err != nil {
				t.Fatal(err)
			}
			return sess
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess := tc.build(t, t.TempDir())
			defer sess.Close()
			src := sess.Task().Source()
			nodes := &countingNodes{NodeStore: src.Nodes}
			edges := &countingEdges{EdgeStore: src.Edges}
			src.Nodes, src.Edges = nodes, edges
			st, err := sess.TrainEpoch(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := nodes.gathers.Load(); got != int64(st.Batches) {
				t.Errorf("wrapped Gather saw %d calls, want one per batch (%d)", got, st.Batches)
			}
			if tc.lp && nodes.applies.Load() != int64(st.Batches) {
				t.Errorf("wrapped ApplyGrads saw %d calls, want one per batch (%d)", nodes.applies.Load(), st.Batches)
			}
			if !tc.lp && nodes.applies.Load() != 0 {
				t.Errorf("node classification wrote back %d embedding updates to fixed features", nodes.applies.Load())
			}
			if tc.lp && edges.reads.Load() == 0 {
				t.Error("visit-edge reads bypassed the wrapped edge store")
			}
		})
	}
}
