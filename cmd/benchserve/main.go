// Command benchserve measures the online inference subsystem end to end
// and emits BENCH_serve.json, the repo's serving baseline: two small
// datasets (node classification and link prediction) are prepared and
// briefly trained, their checkpoints are served by internal/serve, and
// closed-loop clients at concurrency 1/16/64 measure sustained QPS and
// p50/p99 latency for NC predict and LP top-k — so micro-batching's
// throughput gain under concurrency is visible next to its single-stream
// latency cost.
//
//	make bench-serve                 # CI: -short -check, report to /tmp
//	go run ./cmd/benchserve -check   # full size: the checked-in baseline
//
// -check enforces the serving contract: served NC logits must be
// byte-identical to the training-side evaluation forward for the same
// checkpoint and seed, served LP top-k must be byte-identical to the
// full-ranking ScoreAll kernel, concurrency must not change any result,
// and sustained QPS must clear conservative floors.
//
// Observability gates ride along: the NC server's /metrics output must
// lint as Prometheus text exposition and contain the serve, storage,
// and snapshot families, and a server with span tracing enabled must
// sustain at least 98% of the untraced QPS at concurrency 16.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/benchkit"
	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/decoder"
	"repro/internal/encode"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/marius"
)

// Report is the schema of BENCH_serve.json.
type Report struct {
	benchkit.Header
	Config    Config   `json:"config"`
	NCPredict []Loadpt `json:"nc_predict"`
	LPTopK    []Loadpt `json:"lp_topk"`
	Summary   Summary  `json:"summary"`
}

// Config records the benchmark workload.
type Config struct {
	NCNodes    int   `json:"nc_nodes"`
	LPEntities int   `json:"lp_entities"`
	LPEdges    int   `json:"lp_edges"`
	Dim        int   `json:"dim"`
	MaxBatch   int   `json:"max_batch"`
	MaxWaitUS  int64 `json:"max_wait_us"`
	Workers    int   `json:"workers"`
	Requests   int   `json:"requests_per_point"`
	Seed       int64 `json:"seed"`
}

// Loadpt is one (endpoint, concurrency) measurement.
type Loadpt struct {
	Concurrency int     `json:"concurrency"`
	QPS         float64 `json:"qps"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
}

// Summary is what -check gates on.
type Summary struct {
	NCMatchesEval     bool    `json:"nc_matches_eval"`
	LPMatchesScoreAll bool    `json:"lp_matches_scoreall"`
	ConcurrencyStable bool    `json:"concurrency_preserves_results"`
	NCPeakQPS         float64 `json:"nc_peak_qps"`
	LPPeakQPS         float64 `json:"lp_peak_qps"`
	// MetricsLint is true when the NC server's /metrics output parses as
	// Prometheus text exposition and carries the serve, storage, and
	// snapshot metric families.
	MetricsLint bool `json:"metrics_prometheus_lint"`
	// TraceQPSRatio is traced-server QPS over plain-server QPS at
	// concurrency 16, measured back to back — the serving-side
	// instrumentation overhead probe (floor 0.98 under -check).
	TraceQPSRatio float64 `json:"trace_qps_ratio"`
	// LPDecoder is the decoder kind the LP server reports at /statz; -check
	// requires it to match the checkpoint's decoder.
	LPDecoder string `json:"lp_decoder"`
}

var concurrencies = []int{1, 16, 64}

// Conservative QPS floors for -check: an order of magnitude under what a
// cold CI runner sustains on the -short workload, so regressions that
// serialize the server or break batching fail loudly while machine noise
// does not.
const (
	ncFloorQPS = 200
	lpFloorQPS = 200
)

func main() {
	run := benchkit.New("serve", "enforce gates (differential equality, concurrency stability, QPS floors)")
	flag.Parse()

	cfg := Config{
		NCNodes: 5000, LPEntities: 3000, LPEdges: 30000, Dim: 16,
		MaxBatch: 32, MaxWaitUS: 2000, Workers: 4, Requests: 3000, Seed: 7,
	}
	if run.Short {
		cfg.NCNodes, cfg.LPEntities, cfg.LPEdges = 1000, 800, 8000
		cfg.Requests = 800
	}
	rep := Report{Header: run.Header(), Config: cfg}
	rep.Summary.ConcurrencyStable = true

	work, err := os.MkdirTemp("", "benchserve-")
	benchkit.Must(err)
	defer os.RemoveAll(work)

	scfg := marius.ServeConfig{
		MaxBatch: cfg.MaxBatch, MaxWait: time.Duration(cfg.MaxWaitUS) * time.Microsecond,
		Workers: cfg.Workers, Seed: cfg.Seed,
	}

	// --- Node classification ---
	ncDir := prepNC(work, cfg)
	ncCkpt := trainNC(work, ncDir, cfg)
	ncSrv, err := marius.LoadForInference(ncDir, ncCkpt, scfg)
	benchkit.Must(err)
	ncReqs := make([]*serve.PredictRequest, 256)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := range ncReqs {
		nodes := make([]int32, 1+rng.Intn(8))
		for j := range nodes {
			nodes[j] = int32(rng.Intn(cfg.NCNodes))
		}
		ncReqs[i] = &serve.PredictRequest{Nodes: nodes, Seed: int64(i + 1)}
	}
	ncExpected := make([]*serve.PredictResponse, len(ncReqs))
	for i, r := range ncReqs {
		ncExpected[i], err = ncSrv.Predict(context.Background(), r)
		benchkit.Must(err)
	}
	// Differential gate: served logits vs the training-side evaluation
	// forward (internal/encode, the code path of train/eval.go), bitwise,
	// on a sample of the request pool.
	rep.Summary.NCMatchesEval = ncMatchesEval(ncDir, ncCkpt, ncReqs[:16], ncExpected[:16])
	for _, conc := range concurrencies {
		pt := drive(conc, cfg.Requests, func(i int) error {
			idx := i % len(ncReqs)
			got, err := ncSrv.Predict(context.Background(), ncReqs[idx])
			if err != nil {
				return err
			}
			if !eqPredict(got, ncExpected[idx]) {
				rep.Summary.ConcurrencyStable = false
			}
			return nil
		})
		rep.NCPredict = append(rep.NCPredict, pt)
		if pt.QPS > rep.Summary.NCPeakQPS {
			rep.Summary.NCPeakQPS = pt.QPS
		}
	}
	rep.Summary.MetricsLint = lintPrometheus(ncSrv.Metrics())

	// Tracing-overhead probe: c=16 points against the warm plain server
	// and a second server writing spans for every batch. The traced
	// server gets an unmeasured warm-up (the plain one is warm from the
	// sweep), then the two sides are measured interleaved, best of two
	// each, so machine drift and one-off stalls don't read as overhead.
	tracePath := filepath.Join(work, "serve.trace")
	tr, err := obs.CreateTrace(tracePath)
	benchkit.Must(err)
	tcfg := scfg
	tcfg.Tracer = tr
	tracedSrv, err := marius.LoadForInference(ncDir, ncCkpt, tcfg)
	benchkit.Must(err)
	drivePlain := func() Loadpt {
		return drive(16, cfg.Requests, func(i int) error {
			_, err := ncSrv.Predict(context.Background(), ncReqs[i%len(ncReqs)])
			return err
		})
	}
	driveTraced := func() Loadpt {
		return drive(16, cfg.Requests, func(i int) error {
			_, err := tracedSrv.Predict(context.Background(), ncReqs[i%len(ncReqs)])
			return err
		})
	}
	driveTraced() // warm-up, unmeasured
	var plainQPS, tracedQPS float64
	for round := 0; round < 2; round++ {
		if q := drivePlain().QPS; q > plainQPS {
			plainQPS = q
		}
		if q := driveTraced().QPS; q > tracedQPS {
			tracedQPS = q
		}
	}
	tracedSrv.Close()
	benchkit.Must(tr.Close())
	rep.Summary.TraceQPSRatio = tracedQPS / plainQPS
	// The trace must load as Chrome Trace Event JSON and actually carry
	// serving-stage spans; otherwise the probe measured nothing.
	var spans []struct {
		Cat  string `json:"cat"`
		Name string `json:"name"`
	}
	traceBuf, err := os.ReadFile(tracePath)
	benchkit.Must(err)
	benchkit.Must(json.Unmarshal(traceBuf, &spans))
	sampleSpans := 0
	for _, sp := range spans {
		if sp.Cat == "serve" && sp.Name == "sample" {
			sampleSpans++
		}
	}
	if sampleSpans == 0 {
		log.Print("traced server produced no serve/sample spans")
		rep.Summary.TraceQPSRatio = 0
	}
	ncSrv.Close()

	// --- Link prediction ---
	lpDir := prepLP(work, cfg)
	lpCkpt := trainLP(work, lpDir, cfg)
	lpSrv, err := marius.LoadForInference(lpDir, lpCkpt, scfg)
	benchkit.Must(err)
	snap := lpSrv.Snapshot()
	rep.Summary.LPDecoder = lpSrv.Statz().Decoder
	lpReqs := make([]*serve.TopKRequest, 256)
	for i := range lpReqs {
		rel := int32(rng.Intn(4))
		lpReqs[i] = &serve.TopKRequest{
			Src: int32(rng.Intn(cfg.LPEntities)), Relation: &rel,
			K: 10, Seed: int64(i + 1),
		}
	}
	// Differential gate: served top-k vs the training-side full-ranking
	// kernel, bitwise.
	rep.Summary.LPMatchesScoreAll = true
	lpExpected := make([]*serve.TopKResponse, len(lpReqs))
	for i, r := range lpReqs {
		got, err := lpSrv.TopK(context.Background(), r)
		benchkit.Must(err)
		lpExpected[i] = got
		scores := decoder.ScoreAll(snap.Decoder, snap.Table.Row(int(r.Src)), snap.RelTable.Row(int(*r.Relation)), snap.Table)
		ids := decoder.TopK(scores, r.K)
		for j := range ids {
			if got.Nodes[j] != ids[j] || got.Scores[j] != scores[ids[j]] {
				rep.Summary.LPMatchesScoreAll = false
			}
		}
	}
	for _, conc := range concurrencies {
		pt := drive(conc, cfg.Requests, func(i int) error {
			idx := i % len(lpReqs)
			got, err := lpSrv.TopK(context.Background(), lpReqs[idx])
			if err != nil {
				return err
			}
			if !eqTopK(got, lpExpected[idx]) {
				rep.Summary.ConcurrencyStable = false
			}
			return nil
		})
		rep.LPTopK = append(rep.LPTopK, pt)
		if pt.QPS > rep.Summary.LPPeakQPS {
			rep.Summary.LPPeakQPS = pt.QPS
		}
	}
	lpSrv.Close()

	run.Write(&rep)
	for i, conc := range concurrencies {
		fmt.Printf("nc predict  c=%-3d %8.0f qps  p50 %6.2fms  p99 %6.2fms\n",
			conc, rep.NCPredict[i].QPS, rep.NCPredict[i].P50MS, rep.NCPredict[i].P99MS)
	}
	for i, conc := range concurrencies {
		fmt.Printf("lp topk     c=%-3d %8.0f qps  p50 %6.2fms  p99 %6.2fms\n",
			conc, rep.LPTopK[i].QPS, rep.LPTopK[i].P50MS, rep.LPTopK[i].P99MS)
	}

	st := rep.Summary
	run.Gate(st.NCMatchesEval, "served logits diverge from the evaluation forward pass")
	run.Gate(st.LPMatchesScoreAll, "served top-k diverges from the full-ranking ScoreAll kernel")
	run.Gate(st.ConcurrencyStable, "concurrent responses diverge from single-request responses")
	run.Gate(st.NCPeakQPS >= ncFloorQPS, "nc predict peak %.0f qps under the %d floor", st.NCPeakQPS, ncFloorQPS)
	run.Gate(st.LPPeakQPS >= lpFloorQPS, "lp topk peak %.0f qps under the %d floor", st.LPPeakQPS, lpFloorQPS)
	run.Gate(st.MetricsLint, "metrics exposition failed the Prometheus text lint")
	run.Gate(st.TraceQPSRatio >= 0.98, "traced server sustained %.3fx the plain QPS, under the 0.98 floor", st.TraceQPSRatio)
	run.Gate(st.LPDecoder == decoder.KindDistMult, "lp /statz reports decoder %q, checkpoint trained %q", st.LPDecoder, decoder.KindDistMult)
	run.Done()
}

// drive runs total requests over conc closed-loop workers and summarizes
// throughput and latency.
func drive(conc, total int, do func(i int) error) Loadpt {
	lat := make([]float64, total)
	var next int64
	var mu sync.Mutex
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if int(next) >= total {
			return -1
		}
		n := int(next)
		next++
		return n
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := take()
				if i < 0 {
					return
				}
				t0 := time.Now()
				benchkit.Must(do(i))
				lat[i] = float64(time.Since(t0)) / float64(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	sort.Float64s(lat)
	return Loadpt{
		Concurrency: conc,
		QPS:         float64(total) / wall,
		P50MS:       lat[total/2],
		P99MS:       lat[total*99/100],
	}
}

func prepNC(work string, cfg Config) string {
	g := gen.SBM(gen.SBMConfig{
		NumNodes: cfg.NCNodes, NumClasses: 8, AvgDegree: 8, FeatureDim: cfg.Dim,
		Homophily: 0.8, FeatNoise: 1, TrainFrac: 0.2, ValidFrac: 0.1, TestFrac: 0.1, Seed: cfg.Seed,
	})
	exp, err := dataset.Export(g, filepath.Join(work, "nc-raw"), "tsv")
	benchkit.Must(err)
	dir := filepath.Join(work, "nc")
	_, err = dataset.Ingest(exp.Config(dir, "nc", cfg.Seed, 2))
	benchkit.Must(err)
	return dir
}

func prepLP(work string, cfg Config) string {
	g := gen.KG(gen.KGConfig{
		NumEntities: cfg.LPEntities, NumRelations: 4, NumEdges: cfg.LPEdges,
		ZipfS: 1.2, ValidFrac: 0.02, TestFrac: 0.02, Seed: cfg.Seed,
	})
	exp, err := dataset.Export(g, filepath.Join(work, "lp-raw"), "tsv")
	benchkit.Must(err)
	dir := filepath.Join(work, "lp")
	_, err = dataset.Ingest(exp.Config(dir, "lp", cfg.Seed, 2))
	benchkit.Must(err)
	return dir
}

func trainNC(work, dir string, cfg Config) string {
	sess, err := marius.FromDataset(dir,
		marius.WithModel(marius.GraphSage), marius.WithFanouts(10, 10),
		marius.WithDim(cfg.Dim), marius.WithBatchSize(512), marius.WithWorkers(1))
	benchkit.Must(err)
	_, err = sess.TrainEpoch(context.Background())
	benchkit.Must(err)
	path := filepath.Join(work, "nc.ckpt")
	benchkit.Must(sess.Save(path))
	benchkit.Must(sess.Close())
	return path
}

func trainLP(work, dir string, cfg Config) string {
	sess, err := marius.FromDataset(dir,
		marius.WithModel(marius.DistMultOnly), marius.WithDim(cfg.Dim),
		marius.WithBatchSize(1024), marius.WithNegatives(64), marius.WithWorkers(1))
	benchkit.Must(err)
	_, err = sess.TrainEpoch(context.Background())
	benchkit.Must(err)
	path := filepath.Join(work, "lp.ckpt")
	benchkit.Must(sess.Save(path))
	benchkit.Must(sess.Close())
	return path
}

// ncMatchesEval rebuilds the model the way training holds it and runs
// the evaluation-substrate forward (internal/encode) for each request's
// deduplicated targets at the request seed, comparing logits bitwise
// with the served responses.
func ncMatchesEval(dir, ckptPath string, reqs []*serve.PredictRequest, served []*serve.PredictResponse) bool {
	cp, err := ckpt.Read(nil, ckptPath)
	benchkit.Must(err)
	ps := nn.NewParamSet()
	rng := rand.New(rand.NewSource(cp.Seed))
	dims := []int{cp.Model.FeatureDim}
	for i := 0; i < cp.Model.Layers-1; i++ {
		dims = append(dims, cp.Model.Dim)
	}
	dims = append(dims, cp.Model.NumClasses)
	enc := gnn.BuildSage(ps, dims, gnn.Mean, rng)
	benchkit.Must(ps.LoadState(cp.Params))
	sctx, err := serve.Open(dir, serve.Config{InMemory: true})
	benchkit.Must(err)
	defer sctx.Close()
	for qi, req := range reqs {
		fwd := encode.New(encode.Config{
			Encoder: enc, Params: ps, Fanouts: cp.Model.Fanouts, Dirs: graph.Both, Workers: 1,
		}, sctx.Adj, req.Seed)
		var uniq []int32
		rows := map[int32]int{}
		for _, id := range req.Nodes {
			if _, ok := rows[id]; !ok {
				rows[id] = len(uniq)
				uniq = append(uniq, id)
			}
		}
		out, err := fwd.Encode(sctx.Features, uniq)
		benchkit.Must(err)
		for i, id := range req.Nodes {
			want := out.Value.Row(rows[id])
			got := served[qi].Logits[i]
			for j := range want {
				if got[j] != want[j] {
					return false
				}
			}
		}
	}
	return true
}

// lintPrometheus renders the registry and checks the exposition line by
// line — HELP/TYPE comments, `name{labels} value` series with parseable
// values — and requires the families the serving stack must export.
func lintPrometheus(reg *obs.Registry) bool {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	series := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? `)
	ok := true
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		m := series.FindString(line)
		if m == "" {
			log.Printf("metrics lint: malformed series line %q", line)
			ok = false
			continue
		}
		if _, err := strconv.ParseFloat(strings.TrimSpace(line[len(m):]), 64); err != nil {
			log.Printf("metrics lint: unparseable value in %q", line)
			ok = false
		}
	}
	for _, fam := range []string{
		"serve_requests_total", "serve_batches_total", "serve_latency_milliseconds",
		"serve_queue_depth", "serve_snapshot_epoch", "serve_snapshot_loaded_timestamp_seconds",
		"storage_bytes_read_total",
	} {
		if !strings.Contains(out, fam) {
			log.Printf("metrics lint: missing family %s", fam)
			ok = false
		}
	}
	return ok
}

func eqPredict(a, b *serve.PredictResponse) bool {
	if len(a.Logits) != len(b.Logits) {
		return false
	}
	for i := range a.Logits {
		if a.Classes[i] != b.Classes[i] || len(a.Logits[i]) != len(b.Logits[i]) {
			return false
		}
		for j := range a.Logits[i] {
			if a.Logits[i][j] != b.Logits[i][j] {
				return false
			}
		}
	}
	return true
}

func eqTopK(a, b *serve.TopKResponse) bool {
	if len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] || a.Scores[i] != b.Scores[i] {
			return false
		}
	}
	return true
}
