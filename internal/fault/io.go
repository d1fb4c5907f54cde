package fault

import (
	"io"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Bounded exponential backoff for transient IO errors (IsTransient:
// injected transients and EINTR-class errnos). retryMax retries at
// retryBase doubling give ≈7.5ms of cumulative sleep in the worst case —
// long enough to ride out an interrupted syscall or a throttling blip,
// short enough that a genuinely dead disk surfaces within one partition
// load. This is the repo's only retry schedule: partition and bucket IO,
// dataset payloads, ingest output, checkpoints, journals and manifests
// all move through transfer.
const (
	retryMax  = 4
	retryBase = 500 * time.Microsecond
)

// RetryStats counts what the transfer loop absorbed: Retries is the
// number of transient errors retried, Gaveup the number of transfers
// that exhausted the retry budget and surfaced the error. The fields are
// atomic, so one RetryStats may be shared by concurrent transfers.
type RetryStats struct {
	Retries atomic.Int64
	Gaveup  atomic.Int64
}

// transfer moves all of p through op starting at offset off. It loops to
// fill on short transfers (POSIX permits n < len(p) with nil error) and
// retries transient errors with bounded exponential backoff; a torn
// transfer re-issues only the unmoved tail, so a retried write never
// double-applies a prefix. Any forward progress resets the retry budget:
// only a stalled transient gives up. A (0, nil) result is
// io.ErrNoProgress, and fatal errors (ENOSPC, ErrCrashed, corruption,
// EOF short of the end) return at once. rs, when non-nil, counts retries
// and give-ups. It returns the number of bytes moved.
func transfer(op func(p []byte, off int64) (int, error), p []byte, off int64, rs *RetryStats) (int, error) {
	total, attempt := 0, 0
	for len(p) > 0 {
		n, err := op(p, off)
		total += n
		p = p[n:]
		off += int64(n)
		if len(p) == 0 {
			// Full transfer; a ReaderAt at exact EOF may still report io.EOF.
			return total, nil
		}
		if err == nil {
			if n == 0 {
				return total, io.ErrNoProgress
			}
			attempt = 0 // short transfer: loop to fill
			continue
		}
		if n > 0 {
			attempt = 0
		}
		if !IsTransient(err) {
			return total, err
		}
		if attempt >= retryMax {
			if rs != nil {
				rs.Gaveup.Add(1)
			}
			return total, err
		}
		if rs != nil {
			rs.Retries.Add(1)
		}
		time.Sleep(retryBase << attempt)
		attempt++
	}
	return total, nil
}

// ReadFullAt reads exactly len(p) bytes from r at off through the
// transfer loop; rs (optional) counts retries and give-ups.
func ReadFullAt(r io.ReaderAt, p []byte, off int64, rs *RetryStats) error {
	_, err := transfer(r.ReadAt, p, off, rs)
	return err
}

// WriteFullAt writes all of p to w at off through the transfer loop; rs
// (optional) counts retries and give-ups.
func WriteFullAt(w io.WriterAt, p []byte, off int64, rs *RetryStats) error {
	_, err := transfer(w.WriteAt, p, off, rs)
	return err
}

// StrictWriter adapts a fault-injectable stream to the strict io.Writer
// contract through the transfer loop: short writes are continued and
// transient errors retried, so an encoder or bufio.Writer above it never
// sees a retryable blip or an io.ErrShortWrite. rs is optional.
func StrictWriter(w io.Writer, rs *RetryStats) io.Writer { return strictWriter{w: w, rs: rs} }

type strictWriter struct {
	w  io.Writer
	rs *RetryStats
}

func (s strictWriter) Write(p []byte) (int, error) {
	return transfer(func(b []byte, _ int64) (int, error) { return s.w.Write(b) }, p, 0, s.rs)
}

// AtomicWrite durably replaces path with fn's output, through fsys (nil
// means OS). fn streams into a temp file named by pattern in path's
// directory through a StrictWriter; the temp file is fsynced, made
// world-readable (CreateTemp's 0600 would hide it from e.g. a serving
// process running as another user — every other artifact the tools
// write is 0644 under the umask), renamed over path, and the directory
// fsynced so the rename itself survives a crash. On any error the temp
// file is removed and path is untouched: a crash at any point leaves
// either the previous file or the complete new one.
func AtomicWrite(fsys FS, path, pattern string, fn func(io.Writer) error) error {
	fs := Or(fsys)
	dir := filepath.Dir(path)
	tmp, err := fs.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	defer fs.Remove(tmp.Name())
	if err := fn(StrictWriter(tmp, nil)); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := fs.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
