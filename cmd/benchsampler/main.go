// Command benchsampler measures the incremental bucket-segmented
// adjacency index against the from-scratch rebuild and the DENSE
// sampling hot path's allocation behavior, emitting BENCH_sampler.json,
// the repo's sampling performance baseline.
//
//	make bench-sampler                 # CI: -short -check, report to /tmp
//	go run ./cmd/benchsampler -check   # full size: the checked-in baseline
//
// The visit-setup benchmark walks identical BETA epoch plans twice: the
// from-scratch path re-reads all c² resident edge buckets and rebuilds
// the full CSR per visit (the trainer's pre-PR-4 behavior), while the
// incremental path swaps a Segmented view over the fragment cache,
// touching only the admitted partitions' rows and columns. -check exits
// non-zero when the incremental path is below 2x per visit at buffer
// capacity >= 4, or when steady-state DENSE sampling (with recycling)
// allocates.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"testing"
	"time"

	"repro/internal/benchkit"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/policy"
	"repro/internal/sampler"
	"repro/internal/storage"
	"repro/internal/train"
)

// Report is the schema of BENCH_sampler.json.
type Report struct {
	benchkit.Header
	Config   Config  `json:"config"`
	Setup    Setup   `json:"visit_setup"`
	Sampling Samp    `json:"sampling"`
	Summary  Summary `json:"summary"`
}

// Config records the benchmark workload.
type Config struct {
	Entities   int   `json:"entities"`
	Edges      int   `json:"edges"`
	Partitions int   `json:"partitions"`
	Capacity   int   `json:"capacity"`
	Fanouts    []int `json:"fanouts"`
	BatchSize  int   `json:"batch_size"`
	Epochs     int   `json:"epochs"`
}

// Setup reports the per-visit adjacency refresh cost of both paths over
// identical epoch plans.
type Setup struct {
	Visits          int     `json:"visits"`
	ScratchMSTotal  float64 `json:"from_scratch_ms_total"`
	ScratchUSVisit  float64 `json:"from_scratch_us_per_visit"`
	IncrMSTotal     float64 `json:"incremental_ms_total"`
	IncrUSVisit     float64 `json:"incremental_us_per_visit"`
	FragCacheHits   int64   `json:"frag_cache_hits"`
	FragCacheMisses int64   `json:"frag_cache_misses"`
}

// Samp reports the DENSE sampling hot path over both index backings.
type Samp struct {
	FlatUSBatch      float64 `json:"flat_us_per_batch"`
	SegmentedUSBatch float64 `json:"segmented_us_per_batch"`
	AllocsFlat       float64 `json:"allocs_per_sample_flat"`
	AllocsSegmented  float64 `json:"allocs_per_sample_segmented"`
}

// Summary is what -check gates on.
type Summary struct {
	SetupSpeedup   float64 `json:"visit_setup_speedup_incremental_vs_scratch"`
	AllocsPerBatch float64 `json:"allocs_per_batch_steady_state"`
}

func main() {
	run := benchkit.New("sampler", "enforce acceptance floors (>=2x visit-setup speedup, 0 allocs/batch)")
	epochs := flag.Int("epochs", 4, "measured epochs (identical plans for both paths)")
	flag.Parse()

	cfg := Config{
		Entities: 40000, Edges: 800000,
		Partitions: 16, Capacity: 4,
		Fanouts: []int{10, 10}, BatchSize: 1024,
		Epochs: *epochs,
	}
	if run.Short {
		cfg.Entities, cfg.Edges = 10000, 200000
	}

	g := gen.KG(gen.KGConfig{
		NumEntities: cfg.Entities, NumRelations: 8, NumEdges: cfg.Edges,
		ZipfS: 1.2, ValidFrac: 0.01, TestFrac: 0.01, Seed: 7,
	})
	pt := train.PrepareLP(g, cfg.Partitions, 7)
	store := storage.NewMemoryEdgeStore(pt, g.Edges)

	// Identical plans for both paths: regenerate from the same seeds.
	plans := func() []*policy.Plan {
		pol := policy.Beta{P: cfg.Partitions, C: cfg.Capacity}
		ps := make([]*policy.Plan, cfg.Epochs)
		for e := range ps {
			ps[e] = pol.NewEpochPlan(rand.New(rand.NewSource(100 + int64(e))))
		}
		return ps
	}

	// From-scratch path: per visit, flatten the c² resident buckets and
	// counting-sort the full in-memory edge set (pre-PR-4 behavior).
	visits := 0
	var buf []graph.Edge
	var adjSink *graph.Adjacency
	t0 := time.Now()
	for _, plan := range plans() {
		for _, v := range plan.Visits {
			buf = buf[:0]
			var err error
			for _, i := range v.Mem {
				for _, j := range v.Mem {
					buf, err = store.ReadBucket(i, j, buf)
					benchkit.Must(err)
				}
			}
			adjSink = graph.BuildAdjacency(g.NumNodes, buf)
			visits++
		}
	}
	scratchTotal := time.Since(t0)
	fmt.Printf("from-scratch: %d visits in %.1f ms (%.0f us/visit)\n",
		visits, ms(scratchTotal), us(scratchTotal)/float64(visits))

	// Incremental path: one fragment cache across epochs (fragments are
	// immutable), Swap per visit. A warm-up epoch fills the cache — the
	// steady state the trainer reaches after its first epoch.
	fc := storage.NewFragCache(store, pt, cfg.Partitions*cfg.Partitions)
	seg := graph.NewSegmented(fc)
	for _, v := range plans()[0].Visits {
		var err error
		seg, err = seg.Swap(v.Mem)
		benchkit.Must(err)
	}
	h0, m0 := fc.Stats()
	t1 := time.Now()
	for _, plan := range plans() {
		for _, v := range plan.Visits {
			var err error
			seg, err = seg.Swap(v.Mem)
			benchkit.Must(err)
		}
	}
	incrTotal := time.Since(t1)
	hits, misses := fc.Stats()
	hits, misses = hits-h0, misses-m0
	fmt.Printf("incremental:  %d visits in %.1f ms (%.0f us/visit), frag cache %d hit / %d miss\n",
		visits, ms(incrTotal), us(incrTotal)/float64(visits), hits, misses)
	if adjSink.NumEdges() != seg.NumEdges() {
		log.Fatalf("index mismatch: from-scratch %d edges, incremental %d", adjSink.NumEdges(), seg.NumEdges())
	}

	// Sampling hot path: identical targets over both index backings, with
	// recycling (the trainers' steady state). Targets are drawn from the
	// resident partitions of the last visit.
	targets := residentTargets(seg, pt, cfg.BatchSize)
	flatAdj := graph.BuildAdjacency(g.NumNodes, buf) // last visit's edge set
	sampFlat := benchSample(flatAdj, cfg.Fanouts, targets)
	sampSeg := benchSample(seg, cfg.Fanouts, targets)
	fmt.Printf("sampling:     flat %.0f us/batch (%.1f allocs), segmented %.0f us/batch (%.1f allocs)\n",
		sampFlat.us, sampFlat.allocs, sampSeg.us, sampSeg.allocs)

	speedup := float64(scratchTotal) / float64(incrTotal)
	allocs := sampFlat.allocs
	if sampSeg.allocs > allocs {
		allocs = sampSeg.allocs
	}
	rep := Report{
		Header: run.Header(),
		Config: cfg,
		Setup: Setup{
			Visits:          visits,
			ScratchMSTotal:  benchkit.Round(ms(scratchTotal), 3),
			ScratchUSVisit:  benchkit.Round(us(scratchTotal)/float64(visits), 3),
			IncrMSTotal:     benchkit.Round(ms(incrTotal), 3),
			IncrUSVisit:     benchkit.Round(us(incrTotal)/float64(visits), 3),
			FragCacheHits:   hits,
			FragCacheMisses: misses,
		},
		Sampling: Samp{
			FlatUSBatch:      benchkit.Round(sampFlat.us, 3),
			SegmentedUSBatch: benchkit.Round(sampSeg.us, 3),
			AllocsFlat:       sampFlat.allocs,
			AllocsSegmented:  sampSeg.allocs,
		},
		Summary: Summary{
			SetupSpeedup:   benchkit.Round(speedup, 3),
			AllocsPerBatch: allocs,
		},
	}
	run.Write(&rep)
	fmt.Printf("\nwrote %s: %.1fx visit-setup speedup, %.1f allocs/batch\n", run.Out, speedup, allocs)

	run.Gate(speedup >= 2, "incremental visit setup %.2fx < 2x from-scratch at capacity %d", speedup, cfg.Capacity)
	run.Gate(allocs == 0, "steady-state sampling allocates %.1f/batch, want 0", allocs)
	run.Done()
}

// residentTargets picks batch-many unique node IDs from seg's resident
// partitions (the trainers only ever sample resident targets).
func residentTargets(seg *graph.Segmented, pt interface{ Range(int) (int32, int32) }, batch int) []int32 {
	rng := rand.New(rand.NewSource(9))
	seen := map[int32]bool{}
	var targets []int32
	mem := seg.Mem()
	for len(targets) < batch {
		lo, hi := pt.Range(mem[rng.Intn(len(mem))])
		if hi == lo {
			continue
		}
		v := lo + int32(rng.Intn(int(hi-lo)))
		if !seen[v] {
			seen[v] = true
			targets = append(targets, v)
		}
	}
	return targets
}

type sampleStat struct {
	us     float64
	allocs float64
}

// benchSample measures steady-state DENSE sampling (with recycling) over
// the given index.
func benchSample(idx graph.Index, fanouts []int, targets []int32) sampleStat {
	smp := sampler.New(idx, fanouts, graph.Both, 0)
	for i := 0; i < 3; i++ { // warm workspaces and the recycle pool
		smp.Reseed(int64(i))
		smp.Recycle(smp.Sample(targets))
	}
	allocs := testing.AllocsPerRun(50, func() {
		smp.Reseed(11)
		smp.Recycle(smp.Sample(targets))
	})
	const iters = 30
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		smp.Reseed(int64(i))
		smp.Recycle(smp.Sample(targets))
	}
	return sampleStat{us: us(time.Since(t0)) / iters, allocs: allocs}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
