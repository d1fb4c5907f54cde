// Command benchfault is the chaos harness: it drives the fault-injection
// layer (internal/fault) through the full pipeline — ingest, out-of-core
// training, crash/resume, and serving — under seeded fault schedules and
// emits BENCH_fault.json, the repo's robustness baseline.
//
//	make bench-fault                 # CI: -short -check, report to /tmp
//	go run ./cmd/benchfault -check   # full size: the checked-in baseline
//
// Five phases, each a differential against the no-fault behavior:
//
//  1. Ingest crash: a prep killed mid-write (torn Nth write, everything
//     after fails) must leave no manifest, be refused by OpenDataset,
//     fail typed (ErrPartialOutput) on re-ingest, and — with Force —
//     sweep and re-ingest to a byte-identical dataset.
//  2. Transient weather: training through an injector that randomly
//     fails and truncates IO must absorb every blip in the bounded
//     retry loops and produce losses and a final checkpoint
//     byte-identical to the clean run.
//  3. Crash/resume: a checkpointed run killed at a randomized write
//     count, then Resumed, must match the uninterrupted run's loss
//     trajectory and final checkpoint bit for bit.
//  4. Serve overload: a burst against a stalled, tiny-queue server must
//     shed quickly (ErrOverloaded / HTTP 503 + Retry-After), expire
//     admitted requests at their deadline, degrade /healthz while
//     shedding persists, and recover to healthy once the stall clears.
//  5. Serve panic: a panic injected into the dispatch path must be
//     contained (HTTP 500, counter bumped), with the very next request
//     served normally by the same process.
//
// -check enforces all of the above as hard gates. The injector decides
// each op from its seed and the op's (file, offset, attempt), whatever
// the goroutine interleaving, but the weather counts it reports can
// still differ between runs: the set of disk ops is itself timing
// dependent (a partition re-admitted while its write-back is in flight
// is copied from the write buffer instead of re-read).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchkit"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/marius"
)

// Report is the schema of BENCH_fault.json.
type Report struct {
	benchkit.Header
	Config   Config        `json:"config"`
	Ingest   IngestPhase   `json:"ingest_crash"`
	Weather  WeatherPhase  `json:"transient_weather"`
	Crash    CrashPhase    `json:"crash_resume"`
	Overload OverloadPhase `json:"serve_overload"`
	Panic    PanicPhase    `json:"serve_panic"`
}

// Config records the chaos workload: link prediction over a disk-mode
// session, because learnable embeddings put evict write-back, prefetch,
// checkpoint, and journal IO all on the faulted path.
type Config struct {
	Entities int   `json:"entities"`
	Edges    int   `json:"edges"`
	Dim      int   `json:"dim"`
	Parts    int   `json:"partitions"`
	Epochs   int   `json:"epochs"`
	Burst    int   `json:"burst"`
	Seed     int64 `json:"seed"`
}

// IngestPhase: prep killed mid-write, then recovered with -force.
type IngestPhase struct {
	CrashSurfaced       bool `json:"crash_surfaced"`
	ManifestAbsent      bool `json:"manifest_absent"`
	OpenRejected        bool `json:"open_rejected"`
	RefusedWithoutForce bool `json:"refused_without_force"`
	ForceMatchesClean   bool `json:"force_matches_clean"`
	OrphansAfter        int  `json:"orphans_after"`
}

// WeatherPhase: training through random transient/short IO faults.
type WeatherPhase struct {
	Transients  int64 `json:"transients_injected"`
	Shorts      int64 `json:"shorts_injected"`
	Retries     int64 `json:"retries_absorbed"`
	Gaveup      int64 `json:"retries_gaveup"`
	LossesMatch bool  `json:"losses_match_clean"`
	CkptMatches bool  `json:"checkpoint_matches_clean"`
}

// CrashPhase: kill -9 at a randomized write, resume, compare.
type CrashPhase struct {
	KillAtWrite int64 `json:"kill_at_write"`
	TotalWrites int64 `json:"total_writes"`
	Resumed     bool  `json:"resumed_from_journal"`
	LossesMatch bool  `json:"losses_match_clean"`
	CkptMatches bool  `json:"checkpoint_matches_clean"`
}

// OverloadPhase: burst against a stalled server with a one-slot queue.
type OverloadPhase struct {
	Shed            uint64  `json:"shed"`
	DeadlineExpired uint64  `json:"deadline_expired"`
	ShedMS          float64 `json:"shed_p_max_ms"`
	HTTPStatus      int     `json:"http_status"`
	RetryAfter      bool    `json:"retry_after_header"`
	DegradedWhile   bool    `json:"healthz_degraded_while_shedding"`
	Recovered       bool    `json:"recovered_after_stall"`
}

// PanicPhase: injected dispatcher panic contained by recovery.
type PanicPhase struct {
	FirstStatus     int    `json:"poisoned_status"`
	PanicsRecovered uint64 `json:"panics_recovered"`
	RecoveredStatus int    `json:"next_request_status"`
}

func main() {
	run := benchkit.New("fault", "enforce gates (recovery differentials, shed/deadline/panic behavior)")
	flag.Parse()

	cfg := Config{Entities: 600, Edges: 6000, Dim: 8, Parts: 4, Epochs: 3, Burst: 64, Seed: 11}
	if run.Short {
		cfg.Entities, cfg.Edges, cfg.Epochs, cfg.Burst = 400, 3000, 2, 32
	}
	rep := Report{Header: run.Header(), Config: cfg}

	work, err := os.MkdirTemp("", "benchfault-")
	benchkit.Must(err)
	defer os.RemoveAll(work)

	// One raw export feeds every ingest in the run, so ingest outputs are
	// comparable byte for byte.
	g := gen.KG(gen.KGConfig{
		NumEntities: cfg.Entities, NumRelations: 4, NumEdges: cfg.Edges,
		ZipfS: 1.2, ValidFrac: 0.05, TestFrac: 0.05, Seed: 13,
	})
	exp, err := dataset.Export(g, filepath.Join(work, "raw"), "tsv")
	benchkit.Must(err)
	mkIngest := func(out string) dataset.Config { return exp.Config(out, "lp", cfg.Seed, cfg.Parts) }

	cleanData := filepath.Join(work, "data")
	_, err = dataset.Ingest(mkIngest(cleanData))
	benchkit.Must(err)

	fmt.Println("phase 1/5: ingest crash + forced re-ingest")
	rep.Ingest = ingestPhase(work, mkIngest, cleanData)

	// Reference run through a zero-rate injector: identical to a plain run
	// (pure passthrough) but counts writes, bounding the crash points and
	// anchoring both differentials.
	ref := refRun(work, cleanData, cfg)

	fmt.Println("phase 2/5: training under transient IO weather")
	rep.Weather = weatherPhase(work, cleanData, cfg, ref)

	fmt.Println("phase 3/5: crash mid-run, resume, differential")
	rep.Crash = crashPhase(work, cleanData, cfg, ref)

	fmt.Println("phase 4/5: serve overload shedding + deadlines")
	rep.Overload = overloadPhase(cleanData, ref.ckptPath, cfg)

	fmt.Println("phase 5/5: serve panic containment")
	rep.Panic = panicPhase(cleanData, ref.ckptPath, cfg)

	run.Write(&rep)

	fmt.Printf("ingest:   crash surfaced %v, refused w/o force %v, force matches clean %v\n",
		rep.Ingest.CrashSurfaced, rep.Ingest.RefusedWithoutForce, rep.Ingest.ForceMatchesClean)
	fmt.Printf("weather:  %d transients + %d shorts injected, %d retries absorbed, losses match %v\n",
		rep.Weather.Transients, rep.Weather.Shorts, rep.Weather.Retries, rep.Weather.LossesMatch)
	fmt.Printf("crash:    killed at write %d/%d, resumed %v, ckpt matches %v\n",
		rep.Crash.KillAtWrite, rep.Crash.TotalWrites, rep.Crash.Resumed, rep.Crash.CkptMatches)
	fmt.Printf("overload: %d shed (worst %.2fms), %d deadline-expired, http %d retry-after %v, degraded %v, recovered %v\n",
		rep.Overload.Shed, rep.Overload.ShedMS, rep.Overload.DeadlineExpired,
		rep.Overload.HTTPStatus, rep.Overload.RetryAfter, rep.Overload.DegradedWhile, rep.Overload.Recovered)
	fmt.Printf("panic:    poisoned request -> %d, %d recovered, next request -> %d\n",
		rep.Panic.FirstStatus, rep.Panic.PanicsRecovered, rep.Panic.RecoveredStatus)

	enforce(run, &rep)
	run.Done()
}

func enforce(run *benchkit.Run, rep *Report) {
	in := rep.Ingest
	run.Gate(in.CrashSurfaced && in.ManifestAbsent && in.OpenRejected,
		"crashed ingest did not surface cleanly (surfaced %v, manifest absent %v, open rejected %v)",
		in.CrashSurfaced, in.ManifestAbsent, in.OpenRejected)
	run.Gate(in.RefusedWithoutForce, "re-ingest over partial output was not refused with ErrPartialOutput")
	run.Gate(in.ForceMatchesClean, "forced re-ingest does not match the clean ingest byte for byte")
	run.Gate(in.OrphansAfter == 0, "%d orphaned temp files survive the forced re-ingest", in.OrphansAfter)
	w := rep.Weather
	run.Gate(w.Transients+w.Shorts > 0, "weather run injected no faults; the phase measured nothing")
	run.Gate(w.Retries > 0, "weather run absorbed no retries despite %d injected transients", w.Transients)
	run.Gate(w.LossesMatch && w.CkptMatches,
		"training under IO weather diverged from the clean run (losses match %v, ckpt match %v)",
		w.LossesMatch, w.CkptMatches)
	c := rep.Crash
	run.Gate(c.LossesMatch && c.CkptMatches,
		"crash at write %d/%d + resume diverged from the uninterrupted run (losses match %v, ckpt match %v)",
		c.KillAtWrite, c.TotalWrites, c.LossesMatch, c.CkptMatches)
	o := rep.Overload
	run.Gate(o.Shed > 0, "overloaded server shed nothing")
	run.Gate(o.ShedMS <= 1000, "slowest shed took %.1fms; shedding must not queue behind the stall", o.ShedMS)
	run.Gate(o.HTTPStatus == http.StatusServiceUnavailable && o.RetryAfter,
		"overloaded HTTP response was %d (retry-after %v), want 503 with Retry-After", o.HTTPStatus, o.RetryAfter)
	run.Gate(o.DeadlineExpired > 0, "no admitted request expired at its deadline under the stall")
	run.Gate(o.DegradedWhile, "/healthz did not degrade under sustained shedding")
	run.Gate(o.Recovered, "server did not recover to healthy after the stall cleared")
	p := rep.Panic
	run.Gate(p.FirstStatus == http.StatusInternalServerError, "poisoned request returned %d, want 500", p.FirstStatus)
	run.Gate(p.PanicsRecovered == 1, "panics_recovered = %d, want exactly 1", p.PanicsRecovered)
	run.Gate(p.RecoveredStatus == http.StatusOK, "request after the contained panic returned %d, want 200", p.RecoveredStatus)
}

// ingestPhase crashes a prep mid-write and walks the recovery path:
// typed refusal without Force, byte-identical re-ingest with it.
func ingestPhase(work string, mkIngest func(string) dataset.Config, cleanDir string) IngestPhase {
	var ph IngestPhase
	crashDir := filepath.Join(work, "data-crashed")
	benchkit.Must(os.MkdirAll(crashDir, 0o755))

	crashed := mkIngest(crashDir)
	crashed.FS = fault.NewInjector(nil, fault.Config{Seed: 17, CrashAfterWrites: 3})
	_, err := dataset.Ingest(crashed)
	ph.CrashSurfaced = errors.Is(err, fault.ErrCrashed)
	_, err = os.Stat(filepath.Join(crashDir, storage.ManifestName))
	ph.ManifestAbsent = os.IsNotExist(err)
	_, err = storage.OpenDataset(nil, crashDir)
	ph.OpenRejected = err != nil

	retry := mkIngest(crashDir)
	_, err = dataset.Ingest(retry)
	ph.RefusedWithoutForce = errors.Is(err, dataset.ErrPartialOutput)

	retry.Force = true
	if _, err := dataset.Ingest(retry); err == nil {
		if _, err := dataset.Validate(crashDir); err == nil {
			ph.ForceMatchesClean = true
			for _, name := range []string{storage.ManifestName, "edges.bin", "valid_edges.bin", "test_edges.bin", "dict.tsv"} {
				a, errA := os.ReadFile(filepath.Join(cleanDir, name))
				if os.IsNotExist(errA) {
					continue // not part of this task's payload
				}
				b, errB := os.ReadFile(filepath.Join(crashDir, name))
				if errA != nil || errB != nil || !bytes.Equal(a, b) {
					ph.ForceMatchesClean = false
				}
			}
		}
	}
	orphans, _ := dataset.OrphanedTemps(crashDir)
	ph.OrphansAfter = len(orphans)
	return ph
}

// trainOpts is the disk-mode training configuration every phase shares:
// out-of-core (partition buffer smaller than p) so evict write-back and
// prefetch IO are on the faulted path.
func trainOpts(workDir string, cfg Config) []marius.Option {
	// COMET needs the buffer to hold at least 2 logical partitions; with
	// p=4 and c=2 that means l=p.
	return []marius.Option{
		marius.WithDisk(workDir, marius.Capacity(2), marius.LogicalPartitions(cfg.Parts)),
		marius.WithModel(marius.DistMultOnly),
		marius.WithDim(cfg.Dim),
		marius.WithBatchSize(64),
		marius.WithNegatives(16),
	}
}

// refResult anchors the differentials: the clean run's loss trajectory,
// final checkpoint bytes, and total write count (the crash-point bound).
type refResult struct {
	losses      []float64
	ckptBytes   []byte
	ckptPath    string
	totalWrites int64
}

func refRun(work, dataDir string, cfg Config) refResult {
	counter := fault.NewInjector(fault.OS, fault.Config{Seed: 1})
	ckptDir := filepath.Join(work, "ref-ckpt")
	benchkit.Must(os.MkdirAll(ckptDir, 0o755))
	res := runCkpt(dataDir, filepath.Join(work, "ref-work"), ckptDir, cfg, counter, nil)
	ref := refResult{
		losses:      losses(res),
		ckptPath:    filepath.Join(ckptDir, "run.ckpt"),
		totalWrites: counter.Writes(),
	}
	raw, err := os.ReadFile(ref.ckptPath)
	benchkit.Must(err)
	ref.ckptBytes = raw
	if ref.totalWrites == 0 {
		log.Fatal("reference run performed no writes; crash points are meaningless")
	}
	return ref
}

// runCkpt trains a full checkpointed run through fsys, reporting storage
// retry counters through stats if non-nil.
func runCkpt(dataDir, workDir, ckptDir string, cfg Config, fsys fault.FS, stats *storage.StatsSnapshot) *marius.RunResult {
	benchkit.Must(os.MkdirAll(workDir, 0o755))
	opts := trainOpts(workDir, cfg)
	if fsys != nil {
		opts = append(opts, marius.WithFaults(fsys))
	}
	sess, err := marius.FromDataset(dataDir, opts...)
	benchkit.Must(err)
	defer sess.Close()
	res, err := sess.Run(context.Background(),
		marius.Epochs(cfg.Epochs), marius.CheckpointTo(filepath.Join(ckptDir, "run.ckpt"), 1))
	if stats != nil {
		*stats = ioStats(sess)
	}
	benchkit.Must(err)
	return res
}

// ioStats sums the session's node- and edge-store counters.
func ioStats(sess *marius.Session) storage.StatsSnapshot {
	src := sess.Task().Source()
	var s storage.StatsSnapshot
	if src.Disk != nil {
		s = src.Disk.Stats().Snapshot()
	}
	if src.Edges != nil {
		e := src.Edges.Stats().Snapshot()
		s.Retries += e.Retries
		s.Gaveup += e.Gaveup
	}
	return s
}

func losses(res *marius.RunResult) []float64 {
	out := make([]float64, 0, len(res.Epochs))
	for _, st := range res.Epochs {
		out = append(out, st.Loss)
	}
	return out
}

// weatherPhase trains through random transient failures and short IO;
// the retry loops must absorb every blip without changing a single bit
// of the training trajectory.
func weatherPhase(work, dataDir string, cfg Config, ref refResult) WeatherPhase {
	inj := fault.NewInjector(nil, fault.Config{
		Seed: 5, Transient: 0.08, Short: 0.04,
		Latency: 100 * time.Microsecond, LatencyRate: 0.002,
	})
	ckptDir := filepath.Join(work, "weather-ckpt")
	benchkit.Must(os.MkdirAll(ckptDir, 0o755))
	var st storage.StatsSnapshot
	res := runCkpt(dataDir, filepath.Join(work, "weather-work"), ckptDir, cfg, inj, &st)

	var ph WeatherPhase
	ph.Transients, ph.Shorts, _ = inj.Injected()
	ph.Retries, ph.Gaveup = st.Retries, st.Gaveup
	ph.LossesMatch = benchkit.SameBits(losses(res), ref.losses)
	raw, err := os.ReadFile(filepath.Join(ckptDir, "run.ckpt"))
	benchkit.Must(err)
	ph.CkptMatches = bytes.Equal(raw, ref.ckptBytes)
	return ph
}

// crashPhase kills a checkpointed run at a randomized write count
// (kill -9 semantics: the Nth write is torn, every later op fails),
// resumes it, and requires the combined run to be indistinguishable
// from one that never died.
func crashPhase(work, dataDir string, cfg Config, ref refResult) CrashPhase {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var ph CrashPhase
	ph.TotalWrites = ref.totalWrites
	ph.KillAtWrite = 1 + rng.Int63n(ref.totalWrites)

	ckptDir := filepath.Join(work, "crash-ckpt")
	workDir := filepath.Join(work, "crash-work")
	benchkit.Must(os.MkdirAll(ckptDir, 0o755))
	benchkit.Must(os.MkdirAll(workDir, 0o755))
	inj := fault.NewInjector(nil, fault.Config{Seed: 2, CrashAfterWrites: ph.KillAtWrite})

	// The "process" that gets killed.
	err := func() error {
		opts := append(trainOpts(workDir, cfg), marius.WithFaults(inj))
		sess, err := marius.FromDataset(dataDir, opts...)
		if err != nil {
			return err
		}
		defer sess.Close()
		_, err = sess.Run(context.Background(),
			marius.Epochs(cfg.Epochs), marius.CheckpointTo(filepath.Join(ckptDir, "run.ckpt"), 1))
		return err
	}()
	if err == nil || !inj.Crashed() {
		log.Fatalf("kill after %d/%d writes: run did not crash (err %v)", ph.KillAtWrite, ph.TotalWrites, err)
	}

	// Restart. If the crash predates all durable state there is no
	// journal, and a fresh process reruns from scratch.
	var res *marius.RunResult
	sess, res, err := marius.Resume(context.Background(), ckptDir)
	switch {
	case errors.Is(err, marius.ErrNoJournal):
		res = runCkpt(dataDir, workDir, ckptDir, cfg, nil, nil)
	case err != nil:
		log.Fatalf("resume after kill at write %d: %v", ph.KillAtWrite, err)
	default:
		ph.Resumed = true
		defer sess.Close()
	}

	ph.LossesMatch = benchkit.SameBits(losses(res), ref.losses)
	raw, err := os.ReadFile(filepath.Join(ckptDir, "run.ckpt"))
	benchkit.Must(err)
	ph.CkptMatches = bytes.Equal(raw, ref.ckptBytes)
	return ph
}

// overloadPhase stalls the dispatcher behind a gate, fills the one-slot
// queue, and bursts: every excess request must shed fast (503 +
// Retry-After over HTTP), admitted requests must expire at their
// deadline, /healthz must degrade while the shedding is sustained, and
// the server must come back healthy once the stall clears.
func overloadPhase(dataDir, ckptPath string, cfg Config) OverloadPhase {
	gate := make(chan struct{})
	var once sync.Once
	unstall := func() { once.Do(func() { close(gate) }) }
	defer unstall()

	scfg := marius.ServeConfig{
		MaxBatch: 1, MaxWait: time.Millisecond, QueueCap: 1, Workers: 1,
		Seed: cfg.Seed, InMemory: true, RequestTimeout: 100 * time.Millisecond,
		Hooks: &marius.ServeHooks{BeforeBatch: func(int) { <-gate }},
	}
	srv, err := marius.LoadForInference(dataDir, ckptPath, scfg)
	benchkit.Must(err)
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	rel := int32(0)
	req := &serve.TopKRequest{Src: 0, Rel: &rel, K: 5, Seed: 1}
	var ph OverloadPhase

	// Two in-flight requests: one stalled in the dispatcher, one queued.
	// Both are admitted, so both must expire at their deadline.
	var inflight sync.WaitGroup
	var expired atomic.Uint64
	for i := 0; i < 2; i++ {
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			if _, err := srv.TopK(context.Background(), req); errors.Is(err, context.DeadlineExceeded) {
				expired.Add(1)
			}
		}()
	}
	waitFull(srv)

	// The burst: with batch and queue both occupied, every call sheds —
	// and sheds fast, not after queuing behind the stall.
	for i := 0; i < cfg.Burst; i++ {
		t0 := time.Now()
		_, err := srv.TopK(context.Background(), req)
		if ms := float64(time.Since(t0)) / float64(time.Millisecond); ms > ph.ShedMS {
			ph.ShedMS = ms
		}
		if !errors.Is(err, serve.ErrOverloaded) {
			log.Fatalf("burst request %d: got %v, want ErrOverloaded", i, err)
		}
	}
	ok, reason := srv.Health()
	ph.DegradedWhile = !ok && strings.Contains(reason, "shed")

	resp, err := http.Post(hs.URL+"/v1/topk", "application/json",
		strings.NewReader(`{"src":0,"rel":0,"k":5}`))
	benchkit.Must(err)
	resp.Body.Close()
	ph.HTTPStatus = resp.StatusCode
	ph.RetryAfter = resp.Header.Get("Retry-After") != ""

	inflight.Wait()
	st := srv.Statz()
	ph.Shed = st.Shed
	ph.DeadlineExpired = st.DeadlineExpired
	if expired.Load() != 2 {
		log.Fatalf("admitted requests under stall: %d expired, want 2", expired.Load())
	}

	// Stall clears; the same process serves again and reports healthy.
	unstall()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := srv.TopK(context.Background(), req); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ok, _ := srv.Health(); ok {
		ph.Recovered = true
	}
	return ph
}

// waitFull polls until the queue slot is occupied, so the burst below
// races with nothing.
func waitFull(srv *serve.Server) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Statz().QueueDepth >= 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	log.Fatal("queue never filled behind the stalled dispatcher")
}

// panicPhase poisons exactly one dispatch with a panic; the server must
// contain it (500, counter bumped) and serve the next request normally.
func panicPhase(dataDir, ckptPath string, cfg Config) PanicPhase {
	var poison atomic.Bool
	scfg := marius.ServeConfig{
		MaxBatch: 8, MaxWait: time.Millisecond, Workers: 2, Seed: cfg.Seed, InMemory: true,
		Hooks: &marius.ServeHooks{BeforeBatch: func(int) {
			if poison.CompareAndSwap(true, false) {
				panic("benchfault: injected dispatcher panic")
			}
		}},
	}
	srv, err := marius.LoadForInference(dataDir, ckptPath, scfg)
	benchkit.Must(err)
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	post := func() int {
		resp, err := http.Post(hs.URL+"/v1/topk", "application/json",
			strings.NewReader(`{"src":0,"rel":0,"k":5}`))
		benchkit.Must(err)
		resp.Body.Close()
		return resp.StatusCode
	}

	var ph PanicPhase
	poison.Store(true)
	ph.FirstStatus = post()
	ph.PanicsRecovered = srv.Statz().PanicsRecovered
	ph.RecoveredStatus = post()
	return ph
}
