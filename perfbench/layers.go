package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// span is one timed call into a layer, recorded from outside the
// program: name, start and end (relative to the log's origin) and the
// span that caused it (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
}

// spanLog keeps spans in memory until the run ends. Calls from any
// goroutine may record; the parent of a layer call is whatever root span
// (an epoch, an eval) is open at the time.
type spanLog struct {
	origin time.Time
	nextID atomic.Int64
	root   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) record(id, parent int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Name: name,
		StartUs: start.Sub(l.origin).Microseconds(), EndUs: end.Sub(l.origin).Microseconds()}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// child records a layer call made under the currently open root span.
func (l *spanLog) child(name string, start, end time.Time) {
	l.record(l.nextID.Add(1), l.root.Load(), name, start, end)
}

// within runs fn as a root span: layer calls made meanwhile record it as
// their parent. The span's ID is reserved up front so children can name
// it before it ends.
func (l *spanLog) within(name string, fn func() error) error {
	id := l.nextID.Add(1)
	l.root.Store(id)
	start := time.Now()
	err := fn()
	end := time.Now()
	l.root.Store(0)
	l.record(id, 0, name, start, end)
	return err
}

// selfUs returns, per root span name, the total time not covered by any
// child span: the part of an epoch the benchmark's layer wrappers do not
// explain.
func (l *spanLog) selfUs(rootName string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartUs, s.EndUs})
		}
	}
	var self int64
	for _, s := range l.spans {
		if s.Parent == 0 && s.Name == rootName {
			self += s.EndUs - s.StartUs - covered(children[s.ID], s.StartUs, s.EndUs)
		}
	}
	return self
}

// covered returns the length of the union of intervals clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

func (l *spanLog) writeJSON(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedNodes wraps a node store, timing Gather and ApplyGrads (the
// embedding/feature gather and the sparse-optimizer write-back of the
// compute stage).
type timedNodes struct {
	storage.NodeStore
	log          *spanLog
	gatherNs     atomic.Int64
	applyGradsNs atomic.Int64
}

func (t *timedNodes) Gather(ids []int32, out *tensor.Tensor) error {
	start := time.Now()
	err := t.NodeStore.Gather(ids, out)
	end := time.Now()
	t.gatherNs.Add(int64(end.Sub(start)))
	t.log.child("storage.gather", start, end)
	return err
}

func (t *timedNodes) ApplyGrads(ids []int32, grads *tensor.Tensor, opt *nn.SparseAdaGrad) error {
	start := time.Now()
	err := t.NodeStore.ApplyGrads(ids, grads, opt)
	end := time.Now()
	t.applyGradsNs.Add(int64(end.Sub(start)))
	t.log.child("storage.apply_grads", start, end)
	return err
}

// timedEdges wraps an edge store, timing the bucket reads that feed a
// visit's training examples.
type timedEdges struct {
	storage.EdgeStore
	log    *spanLog
	readNs atomic.Int64
}

func (t *timedEdges) ReadBucket(i, j int, dst []graph.Edge) ([]graph.Edge, error) {
	start := time.Now()
	out, err := t.EdgeStore.ReadBucket(i, j, dst)
	end := time.Now()
	t.readNs.Add(int64(end.Sub(start)))
	t.log.child("storage.edge_read", start, end)
	return out, err
}

// liveHeapMB forces a garbage collection and returns the live Go heap
// it found, in MB. Called at fixed points of a run (after each epoch,
// after evaluation, after each load step), its maximum is the memory the
// workload holds, independent of where the collector's own pacing
// happened to run.
func liveHeapMB() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / 1e6
}

// cpuTime returns the CPU time (user + system, all threads) the process
// has used so far. The kernel does not charge it for time a virtual
// machine's CPUs were stolen by the host, which wall time cannot
// exclude.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// promSeries parses Prometheus text exposition into its series, keyed
// by name and labels exactly as printed (`name` or `name{k="v"}`): the
// same numbers a /metrics scrape shows.
func promSeries(text []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}
