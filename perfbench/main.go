package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
)

// metricDef is one reported metric. Bound applies to end-to-end metrics
// only: the share of the parent's median by which the metric may worsen
// before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the user-visible metrics every untraced run reports, on
// every workload; doc.go defines each one per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_ms", "ms", "lower", 0.24},
}

// perLayer are the metrics a traced run reports, on every workload (0
// where the workload does not exercise the layer).
var perLayer = []metricDef{
	{"dataset.ingest_s", "s", "lower", 0},
	{"dataset.spill_runs", "count", "lower", 0},
	{"storage.read_mb", "MB", "lower", 0},
	{"storage.write_mb", "MB", "lower", 0},
	{"storage.swaps", "count", "lower", 0},
	{"storage.prefetch_hit_ratio", "ratio", "higher", 0},
	{"storage.retries", "count", "lower", 0},
	{"storage.gaveup", "count", "lower", 0},
	{"storage.gather_s", "s", "lower", 0},
	{"storage.apply_grads_s", "s", "lower", 0},
	{"storage.edge_read_s", "s", "lower", 0},
	{"policy.visits", "count", "lower", 0},
	{"pipeline.load_s", "s", "lower", 0},
	{"pipeline.build_s", "s", "lower", 0},
	{"pipeline.compute_s", "s", "lower", 0},
	{"pipeline.load_wait_s", "s", "lower", 0},
	{"pipeline.batch_wait_s", "s", "lower", 0},
	{"sampler.busy_s", "s", "lower", 0},
	{"sampler.nodes_per_batch", "count", "lower", 0},
	{"sampler.edges_per_batch", "count", "lower", 0},
	{"train.epoch_s", "s", "lower", 0},
	{"train.loss", "ratio", "lower", 0},
	{"train.compute_ms_per_batch", "ms", "lower", 0},
	{"train.fwd_bwd_s", "s", "lower", 0},
	{"train.unwrapped_s", "s", "lower", 0},
	{"cpu.negscore_fwd", "share", "lower", 0},
	{"cpu.negscore_bwd", "share", "lower", 0},
	{"cpu.softmax_ce", "share", "lower", 0},
	{"cpu.dense_matmul", "share", "lower", 0},
	{"cpu.gather_segment", "share", "lower", 0},
	{"cpu.sampler", "share", "lower", 0},
	{"cpu.storage", "share", "lower", 0},
	{"cpu.optimizer", "share", "lower", 0},
	{"cpu.topk_sort", "share", "lower", 0},
	{"cpu.gc", "share", "lower", 0},
	{"cpu.other", "share", "lower", 0},
	{"eval.s", "s", "lower", 0},
	{"eval.queries_per_s", "1/s", "higher", 0},
	{"eval.candidates_per_s", "1/s", "higher", 0},
	{"eval.quality", "ratio", "higher", 0},
	{"eval.mrr", "ratio", "higher", 0},
	{"mem.live_heap_mb", "MB", "lower", 0},
	{"serve.queue_wait_ms_p50", "ms", "lower", 0},
	{"serve.queue_wait_ms_p99", "ms", "lower", 0},
	{"serve.decode_ms", "ms", "lower", 0},
	{"serve.batch_size_mean", "count", "higher", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.deadline_expired", "count", "lower", 0},
	{"serve.generator_late_ms", "ms", "lower", 0},
	{"serve.p50_ms", "ms", "lower", 0},
	{"serve.p99_ms", "ms", "lower", 0},
	{"serve.max_rps", "1/s", "higher", 0},
	{"trace.overhead", "ratio", "lower", 0},
	{"check.compute_lane_gap", "ratio", "lower", 0},
	{"check.profile_agrees", "count", "higher", 0},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateCatalog checks every metric name and unit against the
// character sets BENCHMARK.json allows and that no name repeats.
func validateCatalog(defs ...[]metricDef) error {
	seen := map[string]bool{}
	for _, list := range defs {
		for _, d := range list {
			if !nameRE.MatchString(d.Name) {
				return fmt.Errorf("metric name %q: want [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", d.Name)
			}
			if !unitRE.MatchString(d.Unit) {
				return fmt.Errorf("metric %s: unit %q: want [A-Za-z0-9_/%%.-]{1,16}", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				return fmt.Errorf("metric %s: better %q", d.Name, d.Better)
			}
			if seen[d.Name] {
				return fmt.Errorf("metric %s listed twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	return nil
}

// config is one benchmark invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Work is the scratch directory (datasets, checkpoints, trace
	// artifacts); Tiny shrinks every input to a smoke-test shape.
	Work string
	Tiny bool
	Log  io.Writer
}

// report is what a workload measured.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
}

func newReport() *report { return &report{Correct: true, Metrics: map[string]float64{}} }

// fail records a correctness failure without stopping the run.
func (r *report) fail(log io.Writer, format string, args ...any) {
	r.Correct = false
	fmt.Fprintf(log, "CHECK FAILED: "+format+"\n", args...)
}

var workloads = map[string]func(context.Context, config) (*report, error){
	"lp-mem":   runTrain,
	"lp-disk":  runTrain,
	"nc-disk":  runTrain,
	"lp-serve": runServe,
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result renders the report as the last-line JSON object,
// carrying exactly the catalog's metrics for the run mode.
func (r *report) result(trace bool, log io.Writer) jsonResult {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := jsonResult{Correct: r.Correct, Attempted: max(r.Attempted, 1), Failed: r.Failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok && !trace {
			out.Correct = false
			fmt.Fprintf(log, "CHECK FAILED: metric %s not measured\n", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.Correct = false
			fmt.Fprintf(log, "CHECK FAILED: metric %s is %v\n", d.Name, v)
			v = 0
		}
		out.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	return out
}

func printTable(w io.Writer, title string, defs []metricDef, m map[string]float64) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
}

func main() {
	workload := flag.String("workload", "", "workload name: lp-mem, lp-disk, nc-disk or lp-serve")
	seed := flag.Int64("seed", 1, "input seed (the same seed gives the same inputs)")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory")
	flag.Parse()

	if err := validateCatalog(endToEnd, perLayer); err != nil {
		fatal(err)
	}
	run, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fatal(fmt.Errorf("unknown workload %q (want one of %v)", *workload, names))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("need --seconds > 0 and --trace 0 or 1"))
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*work, *workload+"-")
	if err != nil {
		fatal(err)
	}
	cfg := config{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Work: dir, Log: os.Stdout}
	rep, err := run(context.Background(), cfg)
	if !cfg.Trace {
		// Traced runs keep their spans, profile and trace for inspection.
		os.RemoveAll(dir)
	}
	if err != nil {
		fatal(err)
	}
	res := rep.result(cfg.Trace, os.Stdout)
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}
