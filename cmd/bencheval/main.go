// Command bencheval measures the link-prediction evaluation subsystem and
// emits BENCH_eval.json, the repo's ranking-evaluation baseline: for each
// decoder (DistMult, ComplEx, TransE) it times the streamed filtered-ranking
// protocol (internal/eval) over a generated knowledge graph — queries ranked
// per second against the full entity set — and the fused candidate-scoring
// kernel on its own (candidate scores per second through ScoreAll).
//
//	make bench-eval                   # CI: -short -check, report to /tmp
//	go run ./cmd/bencheval -check     # full size: the checked-in baseline
//
// -check enforces the evaluation contract: MRR and Hits@k must be bitwise
// identical across worker counts, batch sizes and candidate-chunk widths;
// the fused scoring path must reproduce the scalar RefScore reference bit
// for bit for every decoder; filtered MRR must be at least the raw MRR
// (filtering only removes competitors); and throughput must clear
// conservative floors.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/benchkit"
	"repro/internal/decoder"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Report is the schema of BENCH_eval.json.
type Report struct {
	benchkit.Header
	Config  Config    `json:"config"`
	Ranking []RankPt  `json:"ranking"`
	Scoring []ScorePt `json:"scoring"`
	Summary Summary   `json:"summary"`
}

// Config records the benchmark workload.
type Config struct {
	Entities  int   `json:"entities"`
	Relations int   `json:"relations"`
	Edges     int   `json:"edges"`
	Dim       int   `json:"dim"`
	Seed      int64 `json:"seed"`
}

// RankPt is one (decoder, workers, protocol) ranking measurement: QPS is
// ranked queries per second, each query scoring every entity (two queries
// per held-out edge).
type RankPt struct {
	Decoder  string  `json:"decoder"`
	Workers  int     `json:"workers"`
	Filtered bool    `json:"filtered"`
	Queries  int     `json:"queries"`
	QPS      float64 `json:"queries_per_sec"`
	MRR      float64 `json:"mrr"`
	Hits1    float64 `json:"hits_at_1"`
	Hits10   float64 `json:"hits_at_10"`
}

// ScorePt is one decoder's fused candidate-scoring rate.
type ScorePt struct {
	Decoder      string  `json:"decoder"`
	ScoresPerSec float64 `json:"scores_per_sec"`
}

// Summary is what -check gates on.
type Summary struct {
	// BitReproducible is true when MRR/Hits@k agree bitwise across
	// worker counts, batch sizes and chunk widths, for every decoder.
	BitReproducible bool `json:"bit_reproducible"`
	// FusedMatchesRef is true when the fused ScoreAll path reproduces the
	// scalar RefScore reference bit for bit on a triple sample.
	FusedMatchesRef bool `json:"fused_matches_ref"`
	// FilteredGeRaw is true when filtered MRR >= raw MRR for every decoder.
	FilteredGeRaw bool    `json:"filtered_mrr_ge_raw"`
	PeakRankQPS   float64 `json:"peak_rank_qps"`
	PeakScoresPS  float64 `json:"peak_scores_per_sec"`
	MinRankQPS    float64 `json:"min_rank_qps"`
	MinScoresPS   float64 `json:"min_scores_per_sec"`
}

var kinds = []string{decoder.KindDistMult, decoder.KindComplEx, decoder.KindTransE}

// Conservative floors for -check: an order of magnitude under what a cold
// CI runner sustains on the -short workload, so regressions that serialize
// the evaluator or break the fused kernel fail loudly while noise does not.
const (
	rankFloorQPS = 300 // ranked queries/sec, full entity set per query
	scoreFloorPS = 2e6 // fused candidate scores/sec, single thread
)

func main() {
	run := benchkit.New("eval", "enforce gates (bit-reproducibility, fused-vs-reference equality, throughput floors)")
	flag.Parse()

	cfg := Config{Entities: 10000, Relations: 16, Edges: 120000, Dim: 32, Seed: 7}
	if run.Short {
		cfg.Entities, cfg.Edges, cfg.Dim = 2000, 20000, 16
	}
	rep := Report{Header: run.Header(), Config: cfg}
	sum := &rep.Summary
	sum.BitReproducible, sum.FusedMatchesRef, sum.FilteredGeRaw = true, true, true
	sum.MinRankQPS, sum.MinScoresPS = 1e18, 1e18

	g := gen.KG(gen.KGConfig{
		NumEntities: cfg.Entities, NumRelations: cfg.Relations, NumEdges: cfg.Edges,
		ZipfS: 1.2, ValidFrac: 0.05, TestFrac: 0.05, Seed: cfg.Seed,
	})
	adj := graph.BuildAdjacency(g.NumNodes, g.Edges)
	filter := eval.NewFilter(adj, g.ValidEdges, g.TestEdges)

	// A shared random entity table: evaluation cost does not depend on
	// training quality, and a deterministic table keeps the reproducibility
	// gates meaningful across runs.
	rng := rand.New(rand.NewSource(cfg.Seed))
	table := tensor.New(g.NumNodes, cfg.Dim)
	for i := range table.Data {
		table.Data[i] = float32(rng.NormFloat64()) * 0.1
	}

	workerSweep := []int{1, 4}
	for _, kind := range kinds {
		dec, err := decoder.New(kind, nn.NewParamSet(), g.NumRels, cfg.Dim, rand.New(rand.NewSource(cfg.Seed+1)))
		benchkit.Must(err)
		rel := dec.RelParam().Value

		base := eval.RankingConfig{Dec: dec, Rel: rel, Table: table, Ks: []int{1, 10}, Filter: filter}

		// Throughput sweep: filtered protocol at each worker count, plus a
		// raw point at the top worker count for the filtering-cost contrast.
		var ref *RankPt
		for _, w := range workerSweep {
			c := base
			c.Workers = w
			pt := timeRanking(kind, c, g.ValidEdges, true)
			rep.Ranking = append(rep.Ranking, pt)
			sum.PeakRankQPS = max(sum.PeakRankQPS, pt.QPS)
			sum.MinRankQPS = min(sum.MinRankQPS, pt.QPS)
			if ref == nil {
				r := pt
				ref = &r
			} else if pt.MRR != ref.MRR || pt.Hits1 != ref.Hits1 || pt.Hits10 != ref.Hits10 {
				log.Printf("%s workers=%d diverges from workers=%d", kind, w, workerSweep[0])
				sum.BitReproducible = false
			}
		}
		raw := base
		raw.Filter = nil
		raw.Workers = workerSweep[len(workerSweep)-1]
		rawPt := timeRanking(kind, raw, g.ValidEdges, false)
		rep.Ranking = append(rep.Ranking, rawPt)
		if ref.MRR < rawPt.MRR {
			log.Printf("%s filtered MRR %.6f under raw %.6f", kind, ref.MRR, rawPt.MRR)
			sum.FilteredGeRaw = false
		}

		// Bit-reproducibility across batch and chunk geometry, off the
		// clock: adversarial batch/chunk sizes must not move a single bit.
		odd := base
		odd.Workers, odd.BatchSize, odd.Chunk = 3, 17, 511
		or := eval.Ranking(odd, g.ValidEdges)
		if or.MRR != ref.MRR || or.Hits[1] != ref.Hits1 || or.Hits[10] != ref.Hits10 {
			log.Printf("%s batch=17 chunk=511 diverges", kind)
			sum.BitReproducible = false
		}

		// Fused-vs-reference equality on a triple sample: the streamed
		// evaluator and the serving path both reduce to ScoreAll, which must
		// reproduce the scalar textbook scorer bit for bit.
		srng := rand.New(rand.NewSource(cfg.Seed + 2))
		for t := 0; t < 200; t++ {
			e := g.ValidEdges[srng.Intn(len(g.ValidEdges))]
			scores := decoder.ScoreAll(dec, table.Row(int(e.Src)), rel.Row(int(e.Rel)), table)
			want := decoder.RefScore(kind, table.Row(int(e.Src)), rel.Row(int(e.Rel)), table.Row(int(e.Dst)))
			if scores[e.Dst] != want {
				log.Printf("%s fused score %g != reference %g", kind, scores[e.Dst], want)
				sum.FusedMatchesRef = false
				break
			}
		}

		// Kernel-only scoring rate: full-table ScoreAll per source, the
		// serving top-k hot path.
		iters := 200
		if run.Short {
			iters = 100
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			e := g.Edges[i%len(g.Edges)]
			_ = decoder.ScoreAll(dec, table.Row(int(e.Src)), rel.Row(int(e.Rel)), table)
		}
		ps := float64(iters) * float64(g.NumNodes) / time.Since(start).Seconds()
		rep.Scoring = append(rep.Scoring, ScorePt{Decoder: kind, ScoresPerSec: ps})
		sum.PeakScoresPS = max(sum.PeakScoresPS, ps)
		sum.MinScoresPS = min(sum.MinScoresPS, ps)
	}

	run.Write(&rep)
	for _, pt := range rep.Ranking {
		proto := "raw     "
		if pt.Filtered {
			proto = "filtered"
		}
		fmt.Printf("rank  %-8s %s w=%d %8.0f q/s  MRR=%.4f hits@1=%.4f hits@10=%.4f\n",
			pt.Decoder, proto, pt.Workers, pt.QPS, pt.MRR, pt.Hits1, pt.Hits10)
	}
	for _, pt := range rep.Scoring {
		fmt.Printf("score %-8s %14.0f scores/s\n", pt.Decoder, pt.ScoresPerSec)
	}

	run.Gate(sum.BitReproducible, "ranking results vary with worker count, batch size or chunk width")
	run.Gate(sum.FusedMatchesRef, "fused scoring diverges from the scalar reference")
	run.Gate(sum.FilteredGeRaw, "filtered MRR fell below raw MRR")
	run.Gate(sum.MinRankQPS >= rankFloorQPS, "ranking throughput %.0f q/s under the %d floor", sum.MinRankQPS, rankFloorQPS)
	run.Gate(sum.MinScoresPS >= scoreFloorPS, "scoring throughput %.0f/s under the %.0f floor", sum.MinScoresPS, scoreFloorPS)
	run.Done()
}

func timeRanking(kind string, cfg eval.RankingConfig, edges []graph.Edge, filtered bool) RankPt {
	start := time.Now()
	res := eval.Ranking(cfg, edges)
	dur := time.Since(start).Seconds()
	return RankPt{
		Decoder: kind, Workers: cfg.Workers, Filtered: filtered,
		Queries: res.Ranked, QPS: float64(res.Ranked) / dur,
		MRR: res.MRR, Hits1: res.Hits[1], Hits10: res.Hits[10],
	}
}
