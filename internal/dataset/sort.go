package dataset

import (
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

// The on-disk edge layout is owned by the storage package; using its
// exported constant and encoder keeps the preprocessor byte-compatible
// with DiskEdgeStore by construction.
const edgeBytes = storage.EdgeBytes

func encodeEdge(e graph.Edge, buf []byte) { storage.EncodeEdge(e, buf) }

// extSorter is the memory-bounded external bucket sort at the heart of
// ingestion: edges stream in (already relabeled to final node IDs), are
// buffered up to a fixed edge budget, and every full buffer is stable
// counting-sorted by edge bucket and appended to a spill file as one
// *run*. The merge pass concatenates the runs' per-bucket segments in
// run order, which restores the exact global input order within every
// bucket — the same order partition.Partitioning.Buckets preserves — so
// an ingested dataset trains identically to the in-memory graph it came
// from. Peak memory is the edge buffer plus the encode buffer
// (edgeMemBytes per buffered edge), never the full edge list.
type extSorter struct {
	pt       partition.Partitioning
	maxEdges int
	buf      []graph.Edge
	enc      []byte // one run's encoded bytes, bucket-grouped

	spill fault.File // runs appended back to back
	runs  [][]int64

	peakEdges int
	spilled   int64
}

// edgeMemBytes is the sorter's working-set cost per buffered edge: the
// 12-byte in-memory edge plus its 12-byte encoded copy in the run buffer.
const edgeMemBytes = 2 * edgeBytes

// newExtSorter returns a sorter spilling to a temp file created through
// fsys under tmpDir, buffering at most maxEdges edges.
func newExtSorter(fsys fault.FS, pt partition.Partitioning, maxEdges int, tmpDir string) (*extSorter, error) {
	if maxEdges < 1 {
		maxEdges = 1
	}
	f, err := fsys.CreateTemp(tmpDir, "mariusprep-spill-*")
	if err != nil {
		return nil, err
	}
	return &extSorter{pt: pt, maxEdges: maxEdges, spill: f,
		buf: make([]graph.Edge, 0, maxEdges)}, nil
}

// close releases the spill file.
func (s *extSorter) close() {
	if s.spill != nil {
		name := s.spill.Name()
		s.spill.Close()
		os.Remove(name)
		s.spill = nil
	}
}

// add buffers one edge, spilling a run when the budget fills.
func (s *extSorter) add(e graph.Edge) error {
	s.buf = append(s.buf, e)
	if len(s.buf) > s.peakEdges {
		s.peakEdges = len(s.buf)
	}
	if len(s.buf) >= s.maxEdges {
		return s.spillRun()
	}
	return nil
}

// encodeRun stable counting-sorts the buffer by bucket directly into
// the encode buffer (the run's byte image, bucket-grouped) and resets
// the buffer. Returns the run's per-bucket counts and encoded bytes
// (valid until the next encodeRun).
func (s *extSorter) encodeRun() (counts []int64, enc []byte) {
	p := s.pt.NumPartitions
	counts = make([]int64, p*p)
	for _, e := range s.buf {
		i, j := s.pt.Bucket(e)
		counts[s.pt.BucketID(i, j)]++
	}
	// Byte cursor per bucket within this run (prefix sums), then place
	// each edge at its bucket cursor.
	cur := make([]int64, p*p)
	var off int64
	for b, c := range counts {
		cur[b] = off
		off += c * edgeBytes
	}
	if cap(s.enc) < int(off) {
		s.enc = make([]byte, off)
	}
	enc = s.enc[:off]
	for _, e := range s.buf {
		i, j := s.pt.Bucket(e)
		b := s.pt.BucketID(i, j)
		encodeEdge(e, enc[cur[b]:])
		cur[b] += edgeBytes
	}
	s.buf = s.buf[:0]
	return counts, enc
}

// spillRun sorts the buffer and appends it to the spill file as one run.
func (s *extSorter) spillRun() error {
	if len(s.buf) == 0 {
		return nil
	}
	counts, enc := s.encodeRun()
	if err := fault.WriteFullAt(s.spill, enc, s.spilled, nil); err != nil {
		return fmt.Errorf("dataset: spill run %d: %w", len(s.runs), err)
	}
	s.runs = append(s.runs, counts)
	s.spilled += int64(len(enc))
	return nil
}

// merge flushes the final run and assembles the bucket-sorted output
// file: for each run in order, each bucket's segment is copied to its
// final position, so bucket b's edges end up in global input order.
// Returns the total per-bucket counts and the per-bucket CRC32 of the
// output bytes.
func (s *extSorter) merge(fsys fault.FS, outPath string) (counts []int64, crcs []uint32, err error) {
	p := s.pt.NumPartitions
	if len(s.runs) == 0 {
		// Everything fit in one buffered run: sort once and stream it
		// straight to the output file, skipping the spill round trip.
		// The encoded image is already bucket-grouped in final order.
		counts, enc := s.encodeRun()
		crcs = make([]uint32, p*p)
		var off int64
		for b, c := range counts {
			crcs[b] = crc32.ChecksumIEEE(enc[off : off+c*edgeBytes])
			off += c * edgeBytes
		}
		out, err := fsys.Create(outPath)
		if err != nil {
			return nil, nil, err
		}
		if err := fault.WriteFullAt(out, enc, 0, nil); err != nil {
			out.Close()
			return nil, nil, fmt.Errorf("dataset: write %s: %w", outPath, err)
		}
		return counts, crcs, out.Close()
	}
	if err := s.spillRun(); err != nil {
		return nil, nil, err
	}
	counts = make([]int64, p*p)
	for _, rc := range s.runs {
		for b, c := range rc {
			counts[b] += c
		}
	}
	crcs = make([]uint32, p*p)
	// Next write position per bucket (bytes), advanced as segments land.
	pos := make([]int64, p*p)
	var off int64
	for b, c := range counts {
		pos[b] = off
		off += c * edgeBytes
	}
	out, err := fsys.Create(outPath)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}()
	// Copy run by run (sequential spill reads, one bounded buffer). The
	// per-bucket CRCs accumulate in write order, which is final file
	// order for each bucket.
	cb := make([]byte, 1<<20)
	var runOff int64
	for _, rc := range s.runs {
		for b, c := range rc {
			for rem := c * edgeBytes; rem > 0; {
				n := int64(len(cb))
				if rem < n {
					n = rem
				}
				if err := fault.ReadFullAt(s.spill, cb[:n], runOff, nil); err != nil {
					return nil, nil, fmt.Errorf("dataset: read spill run: %w", err)
				}
				if err := fault.WriteFullAt(out, cb[:n], pos[b], nil); err != nil {
					return nil, nil, fmt.Errorf("dataset: write bucket %d: %w", b, err)
				}
				crcs[b] = crc32.Update(crcs[b], crc32.IEEETable, cb[:n])
				pos[b] += n
				runOff += n
				rem -= n
			}
		}
	}
	return counts, crcs, nil
}
