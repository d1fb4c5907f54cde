package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/marius"
)

// Serving objective and load shape for lp-serve. The rates are fixed,
// not calibrated, so two commits are offered identical load.
const (
	limitMs     = 50.0         // tail latency limit behind serve.max_rps
	refRate     = 250.0        // reference rate for serve.p50_ms, well below saturation
	ladderStart = 400.0        // first ladder rate
	ladderRatio = 1.25         // geometric step between ladder rates
	ladderMax   = 12           // ladder rates tried before giving up
	bisections  = 2            // geometric bisection steps after the ladder
	refSlices   = 4            // slices the reference rate and saturation run in
	satClients  = 2 * maxBatch // callers keeping every micro-batch full
	topK        = 10
	numProbes   = 16
	serveSetups = 11 // set-ups measured for setup_s
)

// maxBatch is the micro-batch cap the server runs with at its default
// configuration (ServeConfig{}: MaxBatch 32, QueueCap 4*MaxBatch). The
// server does not report it, so checkBatchCap verifies it from the
// batch sizes the server dispatches under saturation and fails the run
// if the default has changed.
const maxBatch = 32

// topkLoad is the request population: one (src, relation) request per
// held-out test edge, in a seeded order, half of them filtered. Rank
// records, per request, where the edge's true tail came back (1..topK,
// topK+1 when it was not returned, 0 while unanswered); answers are
// deterministic, so a request answered twice records the same rank.
type topkLoad struct {
	reqs []*marius.TopKRequest
	dst  []int32
	rank []atomic.Int32
}

func newTopkLoad(test []graph.Edge, seed int64) *topkLoad {
	order := rand.New(rand.NewSource(seed)).Perm(len(test))
	l := &topkLoad{rank: make([]atomic.Int32, len(test))}
	for i, j := range order {
		e := test[j]
		rel := e.Rel
		l.reqs = append(l.reqs, &marius.TopKRequest{Src: e.Src, Relation: &rel, K: topK, Filter: i%2 == 0})
		l.dst = append(l.dst, e.Dst)
	}
	return l
}

// serve sends request k and records where its true tail ranked.
func (l *topkLoad) serve(ctx context.Context, s *marius.InferenceServer, k int) (*marius.TopKResponse, error) {
	resp, err := s.TopK(ctx, l.reqs[k])
	if err != nil {
		return nil, err
	}
	rank := int32(topK + 1)
	for i, n := range resp.Nodes {
		if n == l.dst[k] {
			rank = int32(i + 1)
			break
		}
	}
	l.rank[k].Store(rank)
	return resp, nil
}

// cover serves, maxBatch at a time, every request not yet answered, so
// the quality figures always cover the whole test set.
func (l *topkLoad) cover(ctx context.Context, s *marius.InferenceServer) (sent, failed int) {
	var wg sync.WaitGroup
	var nFailed atomic.Int64
	sem := make(chan struct{}, maxBatch)
	for k := range l.reqs {
		if l.rank[k].Load() != 0 {
			continue
		}
		sent++
		sem <- struct{}{}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if _, err := l.serve(ctx, s, k); err != nil {
				nFailed.Add(1)
			}
			<-sem
		}(k)
	}
	wg.Wait()
	return sent, int(nFailed.Load())
}

// quality returns Hits@topK and MRR@topK of the served answers over the
// answered requests.
func (l *topkLoad) quality() (hits, mrr float64) {
	n := 0
	for k := range l.rank {
		r := l.rank[k].Load()
		if r == 0 {
			continue
		}
		n++
		if r <= topK {
			hits++
			mrr += 1 / float64(r)
		}
	}
	if n == 0 {
		return 0, 0
	}
	return hits / float64(n), mrr / float64(n)
}

// runServe runs lp-serve: train a checkpoint on the lp-mem input (off
// the clock), measure set-up (ingest + LoadForInference), then offer
// open-loop TopK load at the reference rate, interleaved with saturated
// closed-loop load. A traced run replaces the saturated load with the
// open-loop rate ladder and adds a second, instrumented reference run.
func runServe(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	g := lpMemKG(cfg.Tiny)(cfg.Seed)
	exp, err := dataset.Export(g, filepath.Join(cfg.Work, "raw"), "bin")
	if err != nil {
		return nil, err
	}
	ckPath := filepath.Join(cfg.Work, "ckpt")
	test, err := trainCheckpoint(ctx, cfg, exp, ckPath)
	if err != nil {
		return nil, err
	}
	load := newTopkLoad(test, cfg.Seed)
	n := len(load.reqs)
	fmt.Fprintf(cfg.Log, "workload lp-serve seed %d: %d entities, %d relations, %d test requests\n",
		cfg.Seed, g.NumNodes, g.NumRels, n)

	// setup_s is the process CPU time of each set-up, as for training;
	// each server but the last is closed before the next set-up starts.
	var setups []float64
	var srv *marius.InferenceServer
	for i := 0; i < serveSetups; i++ {
		if srv != nil {
			srv.Close()
			os.RemoveAll(filepath.Join(cfg.Work, fmt.Sprintf("ds%d", i-1)))
		}
		dir := filepath.Join(cfg.Work, fmt.Sprintf("ds%d", i))
		runtime.GC()
		cpu0 := cpuTime()
		if _, err := dataset.Ingest(exp.Config(dir, marius.TaskLP, cfg.Seed, 1)); err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		if srv, err = marius.LoadForInference(dir, ckPath, marius.ServeConfig{}); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		setups = append(setups, (cpuTime() - cpu0).Seconds())
	}
	fmt.Fprintf(cfg.Log, "set-up CPU times")
	for _, s := range setups {
		fmt.Fprintf(cfg.Log, " %.3fs", s)
	}
	fmt.Fprintln(cfg.Log)
	defer srv.Close()
	dataDir := filepath.Join(cfg.Work, fmt.Sprintf("ds%d", serveSetups-1))

	// Requests walk the seeded test order across rungs (base is how many
	// went before), so the load covers the whole test set. Every
	// probeEvery-th request of the reference rung is a probe: its batched
	// answer must equal the same request served alone.
	probeEvery := max(1, int(refRate*refSeconds(cfg)/refSlices)/numProbes)
	var underLoad [numProbes][]byte
	send := func(s *marius.InferenceServer, base int, probes bool) func(i int) error {
		return func(i int) error {
			resp, err := load.serve(ctx, s, (base+i)%n)
			if err != nil {
				return err
			}
			if probes && i%probeEvery == 0 && i/probeEvery < numProbes {
				underLoad[i/probeEvery], _ = json.Marshal(resp)
			}
			return nil
		}
	}

	// The reference rate and the saturated throughput are measured in
	// refSlices interleaved slices, so a burst of noise on a shared
	// machine lands in one slice only: serve_p50_ms is the p50 of the
	// pooled reference samples, cpu_ms the median slice.
	base := 0
	account := func(sent, failed int) {
		base += sent
		rep.Attempted += sent
		rep.Failed += failed
	}
	step := func(kind string, rate, seconds float64, probes bool) rung {
		r := openLoop(rate, secs(seconds), send(srv, base, probes))
		account(r.Sent, r.Failed)
		printRung(cfg, kind, r)
		return r
	}
	var refLat, satRates, satCPUMs []float64
	var refSent int
	for sl := 0; sl < refSlices; sl++ {
		r := step("reference", refRate, refSeconds(cfg)/refSlices, sl == 0)
		if sl == 0 {
			refSent = r.Sent
		}
		refLat = append(refLat, r.LatMs...)
		if !cfg.Trace {
			cpu0 := cpuTime()
			done, failed, el := closedLoop(satClients, secs(satSeconds(cfg)/refSlices), send(srv, base, false))
			satCPUMs = append(satCPUMs, float64(cpuTime()-cpu0)/float64(time.Millisecond)/float64(max(done, 1)))
			account(done+failed, failed)
			satRates = append(satRates, float64(done)/el.Seconds())
			fmt.Fprintf(cfg.Log, "saturated %d callers: %d answered, %d failed, %.1f/s\n",
				satClients, done, failed, satRates[len(satRates)-1])
		}
	}
	refSum := summarize(refLat)
	// The open-loop rate ladder is the traced run's: the highest rate
	// meeting the objective swings with every stall of a shared machine,
	// so it is reported per layer rather than gated. Past saturation the
	// server sheds requests at its full queue, by design: a shed fails
	// the rung, but is overload the ladder provoked on purpose, not a
	// failed operation of the run.
	var maxRate float64
	var ladderShed int
	if cfg.Trace {
		maxRate = ladder(func(rate float64) bool {
			shed0 := srv.Statz().Shed
			r := step("ladder", rate, rungSeconds(cfg), false)
			shed := int(srv.Statz().Shed - shed0)
			ladderShed += shed
			rep.Failed -= shed
			return r.meets(limitMs, maxBatch)
		})
	}
	// Retained heap with the server up, after a forced collection
	// outside the timed load.
	heapMB := liveHeapMB()
	if err := checkBatchCap(srv); err != nil {
		rep.fail(cfg.Log, "%v", err)
	}

	// Off the clock: answer whatever the load did not reach, then check
	// the probes' byte identity.
	sent, failed := load.cover(ctx, srv)
	rep.Attempted += sent
	rep.Failed += failed
	for j := 0; j < numProbes && j*probeEvery < refSent; j++ {
		rep.Attempted++
		resp, err := srv.TopK(ctx, load.reqs[(j*probeEvery)%n])
		if err != nil {
			rep.Failed++
			rep.fail(cfg.Log, "probe %d served alone: %v", j, err)
			continue
		}
		b, _ := json.Marshal(resp)
		if underLoad[j] == nil {
			rep.fail(cfg.Log, "probe %d was not answered under load", j)
		} else if !bytes.Equal(b, underLoad[j]) {
			rep.fail(cfg.Log, "probe %d: under load %s, alone %s", j, underLoad[j], b)
		}
	}
	hits, mrr := load.quality()
	if !(hits > 0 && hits <= 1) {
		rep.fail(cfg.Log, "served Hits@%d %v outside (0, 1]", topK, hits)
	}
	if rep.Failed > 0 {
		rep.fail(cfg.Log, "%d of %d requests failed", rep.Failed, rep.Attempted)
	}

	m := rep.Metrics
	m["setup_s"] = median(setups)
	m["cpu_ms"] = median(satCPUMs)
	fmt.Fprintf(cfg.Log, "  %-20s %12.4f s\n", "setup_cpu_s", median(setups))
	fmt.Fprintf(cfg.Log, "  %-20s %12.3f ms  (at %.0f rps, n=%d)\n", "serve_p50_ms", refSum.P50, refRate, refSum.N)
	fmt.Fprintf(cfg.Log, "  %-20s %12.3f ms  (p%.1f: the highest percentile with %d samples beyond it)\n",
		"serve_p99_ms", refSum.Tail, refSum.TailPct, tailSamples)
	if cfg.Trace {
		fmt.Fprintf(cfg.Log, "  %-20s %12.1f 1/s (tail <= %.0f ms, no growing backlog)\n", "serve_max_rps", maxRate, limitMs)
	} else {
		fmt.Fprintf(cfg.Log, "  %-20s %12.1f 1/s (%d callers)\n", "serve_saturated_rps", median(satRates), satClients)
	}
	fmt.Fprintf(cfg.Log, "  %-20s %12.4f\n  %-20s %12.4f\n  %-20s %12.2f MB\n",
		"served_hits_at_10", hits, "served_mrr_at_10", mrr, "live_heap_mb", heapMB)
	st := srv.Statz()
	fmt.Fprintf(cfg.Log, "failure record: requests sent %d, failed %d, server errors %d, shed %d (%d of them past saturation on the ladder), past deadline %d\n",
		rep.Attempted, rep.Failed, st.Errors, st.Shed, ladderShed, st.DeadlineExpired)

	if cfg.Trace {
		if err := traceServe(ctx, cfg, dataDir, ckPath, refSum.P50, send, rep); err != nil {
			return nil, err
		}
		m["eval.quality"], m["eval.mrr"], m["mem.live_heap_mb"] = hits, mrr, heapMB
		m["serve.max_rps"], m["serve.p50_ms"], m["serve.p99_ms"] = maxRate, refSum.P50, refSum.Tail
		printTable(cfg.Log, "per-layer (traced reference rung)", perLayer, rep.Metrics)
	} else {
		printTable(cfg.Log, "end-to-end", endToEnd, rep.Metrics)
	}
	return rep, nil
}

// refSeconds, satSeconds and rungSeconds split the measurement budget: a
// quarter for the reference rate, half for saturation, a fourteenth for
// each ladder step of a traced run.
func refSeconds(cfg config) float64  { return cfg.Seconds / 4 }
func satSeconds(cfg config) float64  { return cfg.Seconds / 2 }
func rungSeconds(cfg config) float64 { return cfg.Seconds / 14 }

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// ladder walks the geometric rate ladder until a rate misses the
// objective, then bisects geometrically between the last rate that met
// it and the first that missed. It returns the highest rate that met
// the objective (0 if none did).
func ladder(meets func(rate float64) bool) float64 {
	lo, hi := 0.0, 0.0
	rate := ladderStart
	for i := 0; i < ladderMax; i++ {
		if !meets(rate) {
			hi = rate
			break
		}
		lo = rate
		rate *= ladderRatio
	}
	if hi == 0 || lo == 0 {
		return lo
	}
	for i := 0; i < bisections; i++ {
		mid := math.Sqrt(lo * hi)
		if meets(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func printRung(cfg config, kind string, r rung) {
	s := summarize(r.LatMs)
	late := summarize(r.LateMs)
	fmt.Fprintf(cfg.Log, "%-9s %7.1f rps: n=%d failed=%d p50=%.2fms p%.1f=%.2fms generator late p50=%.3fms max=%.3fms backlog grows=%v\n",
		kind, r.Rate, r.Sent, r.Failed, s.P50, s.TailPct, s.Tail, late.P50, maxOf(r.LateMs),
		backlogGrows(r.Inflight, backlogSlack(r, maxBatch)))
}

// checkBatchCap verifies that the server batches at most maxBatch
// requests and, under the saturated load just offered, fills batches
// beyond half of that: the shape of the closed-loop load and the backlog
// slack rest on the server's default cap being maxBatch.
func checkBatchCap(srv *marius.InferenceServer) error {
	var text bytes.Buffer
	if err := srv.Metrics().WritePrometheus(&text); err != nil {
		return err
	}
	p := promSeries(text.Bytes())
	half := p[fmt.Sprintf(`serve_batch_size_bucket{le="%d"}`, maxBatch/2)]
	full := p[fmt.Sprintf(`serve_batch_size_bucket{le="%d"}`, maxBatch)]
	if all := p["serve_batch_size_count"]; full != all || full <= half {
		return fmt.Errorf("server micro-batch cap is not %d: %v of %v batches within it, %v within %d",
			maxBatch, full, all, half, maxBatch/2)
	}
	return nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// trainCheckpoint prepares the lp-mem input, trains one epoch at the
// paper defaults and saves the checkpoint lp-serve serves; it returns
// the held-out test edges in the prepared (relabeled) ID space.
func trainCheckpoint(ctx context.Context, cfg config, exp *dataset.ExportFiles, path string) ([]graph.Edge, error) {
	dir := filepath.Join(cfg.Work, "ds-train")
	defer os.RemoveAll(dir)
	if _, err := dataset.Ingest(exp.Config(dir, marius.TaskLP, cfg.Seed, 1)); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	sess, err := marius.FromDataset(dir)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	if _, err := sess.TrainEpoch(ctx); err != nil {
		return nil, err
	}
	if err := sess.Save(path); err != nil {
		return nil, err
	}
	return sess.Graph().TestEdges, nil
}

// traceServe loads a second server with the program's tracer attached,
// runs the reference rung again and reads the per-layer numbers from the
// server's own metrics registry, then CPU-profiles saturated load on it.
func traceServe(ctx context.Context, cfg config, dataDir, ckPath string, plainP50 float64,
	send func(*marius.InferenceServer, int, bool) func(int) error, rep *report) error {
	tracer, err := marius.NewTracer(filepath.Join(cfg.Work, "trace.json"))
	if err != nil {
		return err
	}
	defer tracer.Close()
	srv, err := marius.LoadForInference(dataDir, ckPath, marius.ServeConfig{Tracer: tracer})
	if err != nil {
		return err
	}
	defer srv.Close()

	r := openLoop(refRate, secs(refSeconds(cfg)), send(srv, 0, false))
	rep.Attempted += r.Sent
	rep.Failed += r.Failed
	printRung(cfg, "traced", r)

	var text bytes.Buffer
	if err := srv.Metrics().WritePrometheus(&text); err != nil {
		return err
	}
	prom := promSeries(text.Bytes())
	st := srv.Statz()

	// The profile is taken under saturated load, where cpu_ms is
	// measured too. Under the light reference load Go's profiler held
	// samples for only 10-100% of the process's CPU time.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	cpu0 := cpuTime()
	done, failed, _ := closedLoop(satClients, secs(refSeconds(cfg)/2), send(srv, r.Sent, false))
	pprof.StopCPUProfile()
	cpu := (cpuTime() - cpu0).Seconds()
	rep.Attempted += done + failed
	rep.Failed += failed
	profPath := filepath.Join(cfg.Work, "cpu.pprof")
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return err
	}
	shares, sampled, err := profileShares(profPath, cfg.Work)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Log, "CPU profile of %d saturating callers: %d answers, %.2fs of samples for %.2fs of process CPU time\n",
		satClients, done, sampled, cpu)

	m := rep.Metrics
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	for _, fam := range cpuFamilies {
		m["cpu."+fam] = shares[fam]
	}
	m["serve.queue_wait_ms_p50"] = st.Latency["queue_wait"].P50
	m["serve.queue_wait_ms_p99"] = st.Latency["queue_wait"].P99
	if n := prom["serve_batches_total"]; n > 0 {
		m["serve.decode_ms"] = prom[`serve_latency_milliseconds_sum{stage="decode"}`] / n
		m["serve.batch_size_mean"] = prom["serve_batch_size_sum"] / n
	}
	m["serve.shed"] = float64(st.Shed)
	m["serve.deadline_expired"] = float64(st.DeadlineExpired)
	m["serve.generator_late_ms"] = maxOf(r.LateMs)
	p50 := summarize(r.LatMs).P50
	m["trace.overhead"] = p50/plainP50 - 1
	m["check.profile_agrees"] = 1
	fmt.Fprintf(cfg.Log, "tracing overhead: traced p50 %.3fms / untraced %.3fms - 1 = %+.1f%%\n",
		p50, plainP50, 100*m["trace.overhead"])
	fmt.Fprintf(cfg.Log, "trace artifacts: %s (trace.json, cpu.pprof)\n", cfg.Work)
	return nil
}
