// Package storage implements the MariusGNN storage layer (paper §3,
// Fig. 2): node base representations live in a single file split into p
// contiguous physical partitions, edges live in a bucket-sorted file, and
// a partition buffer with capacity c pages partitions between disk and CPU
// memory, with asynchronous prefetch of the next partition set and
// write-back of updated (learnable) representations.
//
// The paper runs against an EBS volume with ~1 GB/s bandwidth; a Throttle
// can simulate that regime on fast local disks so the IO/compute overlap
// behaves as in the paper's benchmarks.
package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
)

// Stats counts IO performed by a store. All fields are updated atomically
// and may be read concurrently.
type Stats struct {
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64
	Reads        atomic.Int64
	Writes       atomic.Int64
	Swaps        atomic.Int64
	// PrefetchHits counts partition loads served from already-completed
	// prefetch staging (or an in-flight write-back buffer) — the IO
	// genuinely overlapped compute. PrefetchMisses counts loads whose
	// read time landed on the critical path: synchronous reads and
	// blocked waits on still-in-flight staged reads.
	PrefetchHits   atomic.Int64
	PrefetchMisses atomic.Int64
	// RetryStats' Retries counts transient IO errors absorbed by the
	// fault package's bounded-backoff transfer loop; Gaveup counts
	// operations that exhausted the retry budget and surfaced the error.
	// Retries are never silent: both are exported as
	// storage_io_retries_total / storage_io_gaveup_total.
	fault.RetryStats
}

// retries returns the store's retry counters for the transfer loop, or
// nil for an uncounted (nil) Stats.
func (s *Stats) retries() *fault.RetryStats {
	if s == nil {
		return nil
	}
	return &s.RetryStats
}

// Snapshot returns a plain-value copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		BytesRead:      s.BytesRead.Load(),
		BytesWritten:   s.BytesWritten.Load(),
		Reads:          s.Reads.Load(),
		Writes:         s.Writes.Load(),
		Swaps:          s.Swaps.Load(),
		PrefetchHits:   s.PrefetchHits.Load(),
		PrefetchMisses: s.PrefetchMisses.Load(),
		Retries:        s.Retries.Load(),
		Gaveup:         s.Gaveup.Load(),
	}
}

// StatsSnapshot is an immutable copy of Stats.
type StatsSnapshot struct {
	BytesRead      int64
	BytesWritten   int64
	Reads          int64
	Writes         int64
	Swaps          int64
	PrefetchHits   int64
	PrefetchMisses int64
	Retries        int64
	Gaveup         int64
}

// Sub returns s - o component-wise.
func (s StatsSnapshot) Sub(o StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		BytesRead:      s.BytesRead - o.BytesRead,
		BytesWritten:   s.BytesWritten - o.BytesWritten,
		Reads:          s.Reads - o.Reads,
		Writes:         s.Writes - o.Writes,
		Swaps:          s.Swaps - o.Swaps,
		PrefetchHits:   s.PrefetchHits - o.PrefetchHits,
		PrefetchMisses: s.PrefetchMisses - o.PrefetchMisses,
		Retries:        s.Retries - o.Retries,
		Gaveup:         s.Gaveup - o.Gaveup,
	}
}

func (s StatsSnapshot) String() string {
	return fmt.Sprintf("read %.1f MB (%d ops), wrote %.1f MB (%d ops), %d swaps",
		float64(s.BytesRead)/1e6, s.Reads, float64(s.BytesWritten)/1e6, s.Writes, s.Swaps)
}

// Throttle models a bandwidth-limited block device. A nil *Throttle means
// unlimited. Wait blocks for the transfer time of n bytes beyond what has
// already elapsed, shared across goroutines like a single device queue.
type Throttle struct {
	bytesPerSec float64
	mu          sync.Mutex
	nextFree    time.Time
}

// NewThrottle returns a throttle simulating the given bandwidth.
func NewThrottle(bytesPerSec float64) *Throttle {
	return &Throttle{bytesPerSec: bytesPerSec}
}

// Wait accounts for an n-byte transfer and sleeps if the simulated device
// is saturated.
func (t *Throttle) Wait(n int) {
	if t == nil || t.bytesPerSec <= 0 || n <= 0 {
		return
	}
	dur := time.Duration(float64(n) / t.bytesPerSec * float64(time.Second))
	t.mu.Lock()
	now := time.Now()
	if t.nextFree.Before(now) {
		t.nextFree = now
	}
	t.nextFree = t.nextFree.Add(dur)
	wait := t.nextFree.Sub(now)
	t.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

// readFloats reads count float32 values at byte offset off into dst.
func readFloats(f io.ReaderAt, off int64, dst []float32, st *Stats, th *Throttle) error {
	buf := make([]byte, len(dst)*4)
	if err := fault.ReadFullAt(f, buf, off, st.retries()); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	if st != nil {
		st.BytesRead.Add(int64(len(buf)))
		st.Reads.Add(1)
	}
	th.Wait(len(buf))
	return nil
}

// readBytes reads len(dst) raw bytes at byte offset off — the compressed
// analog of readFloats for quantized tables, so stats and the throttle
// account the bytes that actually cross the (simulated) device.
func readBytes(f io.ReaderAt, off int64, dst []byte, st *Stats, th *Throttle) error {
	if err := fault.ReadFullAt(f, dst, off, st.retries()); err != nil {
		return err
	}
	if st != nil {
		st.BytesRead.Add(int64(len(dst)))
		st.Reads.Add(1)
	}
	th.Wait(len(dst))
	return nil
}

// writeFloats writes src as float32 values at byte offset off.
func writeFloats(f io.WriterAt, off int64, src []float32, st *Stats, th *Throttle) error {
	buf := make([]byte, len(src)*4)
	for i, v := range src {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
	}
	if err := fault.WriteFullAt(f, buf, off, st.retries()); err != nil {
		return err
	}
	if st != nil {
		st.BytesWritten.Add(int64(len(buf)))
		st.Writes.Add(1)
	}
	th.Wait(len(buf))
	return nil
}

// EdgeBytes is the on-disk size of one encoded edge: src, rel, dst as
// little-endian int32. It is the single source of truth for the edge
// layout, shared with the dataset preprocessor (internal/dataset) whose
// bucket files must stay byte-compatible with DiskEdgeStore.
const EdgeBytes = 12

const edgeBytes = EdgeBytes

// EncodeEdge writes e's EdgeBytes-byte on-disk image into buf.
func EncodeEdge(e graph.Edge, buf []byte) {
	binary.LittleEndian.PutUint32(buf, uint32(e.Src))
	binary.LittleEndian.PutUint32(buf[4:], uint32(e.Rel))
	binary.LittleEndian.PutUint32(buf[8:], uint32(e.Dst))
}

func encodeEdge(e graph.Edge, buf []byte) { EncodeEdge(e, buf) }

func encodeEdges(edges []graph.Edge) []byte {
	buf := make([]byte, len(edges)*edgeBytes)
	for i, e := range edges {
		encodeEdge(e, buf[i*edgeBytes:])
	}
	return buf
}

func decodeEdges(buf []byte, dst []graph.Edge) []graph.Edge {
	n := len(buf) / edgeBytes
	for i := 0; i < n; i++ {
		dst = append(dst, graph.Edge{
			Src: int32(binary.LittleEndian.Uint32(buf[i*edgeBytes:])),
			Rel: int32(binary.LittleEndian.Uint32(buf[i*edgeBytes+4:])),
			Dst: int32(binary.LittleEndian.Uint32(buf[i*edgeBytes+8:])),
		})
	}
	return dst
}
