// Extreme-scale out-of-core training (paper §7.3): the paper trains
// GraphSage + DistMult representations for the full Common Crawl 2012
// hyperlink graph (3.5B nodes, 128B edges) on one machine with 60 GB of
// RAM and an SSD, at 194k edges/sec and $564/epoch.
//
// This example reproduces the pipeline ~1000x scaled down: a Zipf-skewed
// edge stream is bucket-sorted to disk without ever materializing the
// graph, node embeddings live on disk and page through a small partition
// buffer, and one COMET epoch of decoder-only DistMult training runs
// fully out of core. The measured edges/sec extrapolates to a $/epoch
// figure on the paper's P3.2xLarge pricing.
//
// Run with: go run ./examples/hyperlink
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
)

func main() {
	const (
		numNodes = 1_000_000
		numEdges = 4_000_000
		dim      = 16
	)
	fmt.Printf("streaming %d edges over %d nodes to disk, then one out-of-core COMET epoch...\n", numEdges, numNodes)
	res, err := experiments.ExtremeScale(numNodes, numEdges, dim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("preprocessing done in %.1fs\n", res.Preprocess.Seconds())
	fmt.Printf("epoch: %.1fs, %d edges, %.0f edges/sec, %d partition sets, IO %.1f MB\n",
		res.Epoch.Seconds(), res.Edges, res.EdgesPerSec, res.Visits, float64(res.IOBytes)/1e6)
	fmt.Printf("train MRR %.4f (128 shared negatives)\n", res.TrainMRR)
	fmt.Printf("extrapolated to the paper's 128B-edge hyperlink graph at this rate: %.0fh/epoch ≈ $%.0f/epoch on P3.2xLarge\n",
		res.ExtrapolatedH, res.ExtrapolatedC)
	fmt.Println("(the paper reports 194k edges/sec and $564/epoch on a V100 GPU)")
}
