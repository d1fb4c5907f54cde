package train

import (
	"math/rand"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// PrepareLP relabels g for link-prediction training: nodes are assigned to
// p contiguous partitions uniformly at random (paper §3). Returns the
// partitioning.
func PrepareLP(g *graph.Graph, p int, seed int64) partition.Partitioning {
	partition.Apply(g, partition.RandomOrder(g.NumNodes, seed))
	return partition.New(g.NumNodes, p)
}

// PrepareNC relabels g for node classification: training nodes first so
// they occupy the leading partitions and can be statically cached
// (paper §5.2). Returns the partitioning and the number of partitions
// holding training nodes.
func PrepareNC(g *graph.Graph, p int, seed int64) (partition.Partitioning, int) {
	partition.Apply(g, partition.TrainFirstOrder(g.NumNodes, g.TrainNodes, seed))
	pt := partition.New(g.NumNodes, p)
	trainParts := (len(g.TrainNodes) + pt.PartSize - 1) / pt.PartSize
	if trainParts == 0 {
		trainParts = 1
	}
	return pt, trainParts
}

// RandomEmbeddings returns a uniformly-initialized base-representation
// table for learnable embeddings (link prediction).
func RandomEmbeddings(numNodes, dim int, seed int64) *tensor.Tensor {
	t := tensor.New(numNodes, dim)
	t.RandUniform(rand.New(rand.NewSource(seed)), 0.1)
	return t
}

// NewMemorySource builds an all-in-memory source over g: the M-GNN_Mem
// configuration. table is the base-representation table (features for NC,
// embeddings for LP).
func NewMemorySource(g *graph.Graph, pt partition.Partitioning, table *tensor.Tensor) *Source {
	src := &Source{
		Part:     pt,
		NumNodes: g.NumNodes,
		NumRels:  g.NumRels,
		Nodes:    storage.NewMemoryNodeStore(table),
		Edges:    storage.NewMemoryEdgeStore(pt, g.Edges),
	}
	src.FragCache()
	return src
}

// DiskSourceConfig configures NewDiskSource.
type DiskSourceConfig struct {
	Dir       string
	Capacity  int
	Learnable bool
	Throttle  *storage.Throttle
	// InitTable provides initial base representations; nil zero-fills.
	InitTable *tensor.Tensor
	// FS, when non-nil, routes the store files through an injectable
	// filesystem (fault injection); nil means the real filesystem.
	FS fault.FS
}

// NewDiskSource builds a disk-backed source (M-GNN_Disk): node
// representations and edge buckets are written to files under cfg.Dir and
// paged through a partition buffer of cfg.Capacity partitions.
func NewDiskSource(g *graph.Graph, pt partition.Partitioning, dim int, cfg DiskSourceConfig) (*Source, error) {
	var initFn func(int32, []float32)
	if cfg.InitTable != nil {
		initFn = func(id int32, row []float32) { copy(row, cfg.InitTable.Row(int(id))) }
	}
	nodes, err := storage.CreateDiskNodeStore(storage.DiskStoreConfig{
		Dir:       cfg.Dir,
		Part:      pt,
		Dim:       dim,
		Capacity:  cfg.Capacity,
		Learnable: cfg.Learnable,
		Throttle:  cfg.Throttle,
		Init:      initFn,
		FS:        cfg.FS,
	})
	if err != nil {
		return nil, err
	}
	edges, err := storage.CreateDiskEdgeStore(cfg.FS, cfg.Dir, pt, g.Edges, cfg.Throttle)
	if err != nil {
		nodes.Close()
		return nil, err
	}
	src := &Source{
		Part:     pt,
		NumNodes: g.NumNodes,
		NumRels:  g.NumRels,
		Nodes:    nodes,
		Disk:     nodes,
		Edges:    edges,
	}
	src.FragCache()
	return src, nil
}

// DatasetSourceConfig configures NewDatasetSource.
type DatasetSourceConfig struct {
	// InMemory loads the node table into CPU memory (edges stay on
	// disk, served straight off the dataset's bucket file); otherwise
	// node representations page through a partition buffer of Capacity
	// partitions.
	InMemory bool
	Capacity int
	// Learnable creates a fresh learnable representation table (link
	// prediction) initialized from InitTable — under WorkDir for disk
	// storage, since the dataset itself stays read-only. Non-learnable
	// sources serve the dataset's feature shard directly.
	Learnable bool
	WorkDir   string
	InitTable *tensor.Tensor
	Throttle  *storage.Throttle
	// FS, when non-nil, routes the learnable table's work files through
	// an injectable filesystem (fault injection). The dataset's own files
	// already go through the FS it was opened with.
	FS fault.FS
}

// NewDatasetSource builds a source over a preprocessed dataset
// directory: edge buckets are served straight off the dataset's
// bucket-sorted file (no ingest-time re-sort — the fragment cache warms
// from disk on demand), and node representations come from the dataset's
// feature shard (node classification) or a freshly initialized learnable
// table (link prediction).
func NewDatasetSource(ds *storage.Dataset, cfg DatasetSourceConfig) (*Source, error) {
	man := ds.Man
	pt := ds.Partitioning()
	edges, err := ds.EdgeStore(cfg.Throttle)
	if err != nil {
		return nil, err
	}
	src := &Source{
		Part:     pt,
		NumNodes: man.NumNodes,
		NumRels:  man.NumRels,
		Edges:    edges,
	}
	switch {
	case cfg.InMemory && cfg.Learnable:
		src.Nodes = storage.NewMemoryNodeStore(cfg.InitTable)
	case cfg.InMemory:
		table, err := ds.ReadFeatures()
		if err != nil {
			edges.Close()
			return nil, err
		}
		src.Nodes = storage.NewMemoryNodeStore(table)
	case cfg.Learnable:
		var initFn func(int32, []float32)
		if cfg.InitTable != nil {
			initFn = func(id int32, row []float32) { copy(row, cfg.InitTable.Row(int(id))) }
		}
		nodes, err := storage.CreateDiskNodeStore(storage.DiskStoreConfig{
			Dir:       cfg.WorkDir,
			Part:      pt,
			Dim:       cfg.InitTable.Cols,
			Capacity:  cfg.Capacity,
			Learnable: true,
			Throttle:  cfg.Throttle,
			Init:      initFn,
			FS:        cfg.FS,
		})
		if err != nil {
			edges.Close()
			return nil, err
		}
		src.Nodes, src.Disk = nodes, nodes
	default:
		nodes, err := ds.NodeStore(cfg.Capacity, cfg.Throttle)
		if err != nil {
			edges.Close()
			return nil, err
		}
		src.Nodes, src.Disk = nodes, nodes
	}
	src.FragCache()
	return src, nil
}

// ReadAllEdges reads every bucket of the source's edge store into one
// slice in bucket order — the flattened order the segmented training
// index exposes. Dataset-backed sessions use it to build the full
// evaluation adjacency without an in-memory edge list at training time.
func (src *Source) ReadAllEdges() ([]graph.Edge, error) {
	var total int64
	p := src.Part.NumPartitions
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			total += int64(src.Edges.BucketLen(i, j))
		}
	}
	edges := make([]graph.Edge, 0, total)
	var err error
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if edges, err = src.Edges.ReadBucket(i, j, edges); err != nil {
				return nil, err
			}
		}
	}
	return edges, nil
}

// Close releases a source's stores.
func (src *Source) Close() error {
	err := src.Nodes.Close()
	if e := src.Edges.Close(); err == nil {
		err = e
	}
	return err
}
