package experiments

import (
	"context"
	"math/rand"
	"os"
	"time"

	"repro/internal/costmodel"
	"repro/internal/decoder"
	"repro/internal/gen"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/train"
)

// ExtremeScaleResult summarizes the §7.3 streaming out-of-core run.
type ExtremeScaleResult struct {
	Nodes         int
	Edges         int64
	Preprocess    time.Duration
	Epoch         time.Duration
	EdgesPerSec   float64
	TrainMRR      float64
	Visits        int // partition sets |S| walked in the epoch
	IOBytes       int64
	ExtrapolatedH float64 // hours per epoch for the full 128B-edge graph
	ExtrapolatedC float64 // $/epoch at that rate on the P3.2xLarge
}

// ExtremeScale streams a hyperlink-like graph to disk (never materializing
// it), then trains one disk-based DistMult epoch under COMET with the
// embedding table paged through a buffer holding 1/4 of the partitions —
// the paper's Common Crawl experiment scaled down.
func ExtremeScale(numNodes int, numEdges int64, dim int) (*ExtremeScaleResult, error) {
	const p, c, l = 16, 4, 8
	dir, err := os.MkdirTemp("", "extreme")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	pt := partition.New(numNodes, p)

	res := &ExtremeScaleResult{Nodes: numNodes, Edges: numEdges}
	t0 := time.Now()
	writer, err := storage.NewStreamingEdgeWriter(dir, pt)
	if err != nil {
		return nil, err
	}
	stream := gen.NewEdgeStream(gen.StreamConfig{
		NumNodes: numNodes, NumEdges: numEdges, ZipfS: 1.3, Seed: 1,
	})
	for chunk := stream.Next(); chunk != nil; chunk = stream.Next() {
		if err := writer.Append(chunk); err != nil {
			return nil, err
		}
	}
	edgeStore, err := writer.Finalize(nil)
	if err != nil {
		return nil, err
	}
	res.Preprocess = time.Since(t0)

	rng := rand.New(rand.NewSource(2))
	nodes, err := storage.CreateDiskNodeStore(storage.DiskStoreConfig{
		Dir: dir, Part: pt, Dim: dim, Capacity: c, Learnable: true,
		Init: func(id int32, row []float32) {
			for j := range row {
				row[j] = (rng.Float32()*2 - 1) * 0.1
			}
		},
	})
	if err != nil {
		return nil, err
	}
	src := &train.Source{
		Part: pt, NumNodes: numNodes, NumRels: 1,
		Nodes: nodes, Disk: nodes, Edges: edgeStore,
	}
	defer src.Close()

	ps := nn.NewParamSet()
	dec := decoder.NewDistMult(ps, 1, dim, rng)
	tr := train.NewLP(train.Config{
		Params: ps, Decoder: dec,
		BatchSize: 4096, Negatives: 128,
		Opt: nn.NewAdam(0.01), EmbOpt: nn.NewSparseAdaGrad(0.1),
		Workers: 4, Seed: 3,
	}, src, policy.Comet{P: p, L: l, C: c})

	st, err := tr.TrainEpoch(context.Background())
	if err != nil {
		return nil, err
	}
	res.Epoch = st.Duration
	res.EdgesPerSec = float64(st.Examples) / st.Duration.Seconds()
	res.TrainMRR = st.Metric
	res.Visits = st.Visits
	res.IOBytes = st.IO.BytesRead + st.IO.BytesWritten
	full := time.Duration(128e9 / res.EdgesPerSec * float64(time.Second))
	res.ExtrapolatedH = full.Hours()
	res.ExtrapolatedC = costmodel.CostPerEpoch(costmodel.ByName("P3.2xLarge"), full)
	return res, nil
}
