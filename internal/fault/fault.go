// Package fault provides a deterministic, seeded fault-injection seam
// for file IO. Storage, checkpointing, and ingest open their files
// through a small FS interface; production code passes OS (a zero-cost
// passthrough to the os package) while tests and the chaos harness pass
// an Injector that returns transient errors, short reads and writes,
// torn writes, ENOSPC, latency spikes, or a hard "crash after N writes"
// — every decision a pure function of the configured seed and a global
// operation counter, so a failing schedule replays exactly from its
// seed.
//
// The crash model matches kill -9 semantics: the Nth write lands a
// seeded prefix of its buffer (a torn write) and every subsequent
// operation on the injector fails with ErrCrashed, leaving on disk
// exactly the state an abrupt process death would. Recovery code is
// then exercised by reopening the same directory through a fresh FS.
//
// The package also owns the repo's one IO-robustness mechanism (io.go):
// the only retry schedule (bounded exponential backoff for transient
// errors, loop-to-fill on short IO) behind ReadFullAt, WriteFullAt and
// StrictWriter, and the only temp → fsync → rename → fsync-dir sequence,
// AtomicWrite. Storage, checkpoints, journals, manifests and ingest all
// move their bytes through these, so the policy lives in one place.
package fault

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"sync/atomic"
	"syscall"
	"time"
)

// File is the subset of *os.File the repo's IO paths need. *os.File
// satisfies it directly; injected files wrap one.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Closer
	Sync() error
	Name() string
	Stat() (os.FileInfo, error)
	Chmod(mode os.FileMode) error
}

// FS is the file-opening seam threaded through storage, ckpt, and
// dataset ingest. OS is the production implementation; an Injector
// wraps another FS with seeded faults.
type FS interface {
	Create(name string) (File, error)
	Open(name string) (File, error)
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Stat(name string) (os.FileInfo, error)
}

// OS is the passthrough FS over the real filesystem. It adds one
// interface dispatch per operation on syscall-bound paths — no
// measurable cost — and injects nothing.
var OS FS = osFS{}

// Or returns fsys, or OS when fsys is nil, so call sites can thread an
// optional FS without nil checks.
func Or(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}

type osFS struct{}

func (osFS) Create(name string) (File, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Stat(name string) (os.FileInfo, error) {
	return os.Stat(name)
}

// ErrTransient marks an injected fault that a bounded retry should
// absorb. The transfer loop (ReadFullAt, WriteFullAt, StrictWriter)
// treats it (and EINTR-class errnos) as retryable; everything else is
// fatal.
var ErrTransient = errors.New("fault: injected transient IO error")

// ErrCrashed marks every operation after the injector's crash point
// fired. It is fatal by design: the process under test is "dead", and
// the test harness reopens the directory through a fresh FS to recover.
var ErrCrashed = errors.New("fault: crashed (injected)")

// IsTransient reports whether err is worth a bounded retry: an injected
// ErrTransient or an EINTR/EAGAIN/ETIMEDOUT-class errno. Corruption,
// ENOSPC, ErrCrashed, and plain unknown errors are fatal.
func IsTransient(err error) bool {
	if errors.Is(err, ErrTransient) {
		return true
	}
	return errors.Is(err, syscall.EINTR) || errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.ETIMEDOUT)
}

// Config tunes an Injector. All probabilities are in [0, 1] and are
// evaluated deterministically from Seed and the injector's operation
// counter; the zero value injects nothing.
type Config struct {
	// Seed derives every injection decision. Two injectors with the
	// same Config over the same operation sequence inject identically.
	Seed int64
	// Transient is the probability a read or write returns (0, error
	// wrapping ErrTransient) — the op made no progress and a retry
	// should succeed.
	Transient float64
	// Short is the probability a read or write transfers only a seeded
	// prefix and returns nil error — the partial-IO case POSIX permits
	// and naive single-shot callers mishandle.
	Short float64
	// ENOSPC is the probability a write fails with syscall.ENOSPC
	// (fatal: retrying cannot help).
	ENOSPC float64
	// Latency and LatencyRate inject a Latency-long stall into a
	// fraction LatencyRate of operations — slow-disk weather for
	// deadline and shedding tests.
	Latency     time.Duration
	LatencyRate float64
	// CrashAfterWrites, when > 0, makes the Nth write (counted across
	// all files) a torn write — a seeded prefix lands, the op returns
	// ErrCrashed — after which every operation fails with ErrCrashed.
	CrashAfterWrites int64
}

// Injector is an FS that wraps another FS with seeded fault injection.
// It is safe for concurrent use; decisions are serialized through an
// atomic operation counter so a given (seed, op-index) pair always
// resolves the same way.
type Injector struct {
	inner FS
	cfg   Config

	ops     atomic.Int64 // decision counter: one per read/write op
	writes  atomic.Int64 // write ops, for crash-point accounting
	crashed atomic.Bool

	transients atomic.Int64
	shorts     atomic.Int64
	enospcs    atomic.Int64
}

// NewInjector wraps inner (nil means OS) with the faults in cfg.
func NewInjector(inner FS, cfg Config) *Injector {
	return &Injector{inner: Or(inner), cfg: cfg}
}

// Writes returns the number of write operations observed so far. An
// instrumented clean run's total bounds the kill points a crash test
// may choose from.
func (in *Injector) Writes() int64 { return in.writes.Load() }

// Crashed reports whether the crash point has fired.
func (in *Injector) Crashed() bool { return in.crashed.Load() }

// Injected returns the cumulative injected-fault counts.
func (in *Injector) Injected() (transients, shorts, enospcs int64) {
	return in.transients.Load(), in.shorts.Load(), in.enospcs.Load()
}

// splitmix64 is the standard 64-bit finalizer; it turns (seed, op)
// into an independent uniform word.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// roll draws the deterministic uniform in [0, 1) for the next op.
func (in *Injector) roll() (op int64, u float64) {
	op = in.ops.Add(1)
	w := splitmix64(uint64(in.cfg.Seed) ^ uint64(op)*0xD1B54A32D192ED03)
	return op, float64(w>>11) / (1 << 53)
}

// prefixLen picks the seeded torn/short transfer length in [1, n-1]
// (or n when n < 2, where a partial transfer is impossible).
func (in *Injector) prefixLen(op int64, n int) int {
	if n < 2 {
		return n
	}
	w := splitmix64(uint64(in.cfg.Seed)*0x9E3779B97F4A7C15 ^ uint64(op))
	return 1 + int(w%uint64(n-1))
}

func (in *Injector) maybeStall(u float64) {
	if in.cfg.Latency > 0 && in.cfg.LatencyRate > 0 && u < in.cfg.LatencyRate {
		time.Sleep(in.cfg.Latency)
	}
}

// readFault decides the fate of one read of n bytes: inject=false means
// pass through; otherwise transfer `take` bytes and return err.
func (in *Injector) readFault(n int) (take int, err error, inject bool) {
	if in.crashed.Load() {
		return 0, ErrCrashed, true
	}
	op, u := in.roll()
	in.maybeStall(u)
	switch {
	case u < in.cfg.Transient:
		in.transients.Add(1)
		return 0, ErrTransient, true
	case u < in.cfg.Transient+in.cfg.Short && n >= 2:
		in.shorts.Add(1)
		return in.prefixLen(op, n), nil, true
	}
	return 0, nil, false
}

// writeFault decides the fate of one write of n bytes. take is the
// number of bytes to actually write to the inner file (torn writes land
// a prefix before failing).
func (in *Injector) writeFault(n int) (take int, err error, inject bool) {
	if in.crashed.Load() {
		return 0, ErrCrashed, true
	}
	w := in.writes.Add(1)
	op, u := in.roll()
	in.maybeStall(u)
	if in.cfg.CrashAfterWrites > 0 && w >= in.cfg.CrashAfterWrites {
		in.crashed.Store(true)
		return in.prefixLen(op, n), ErrCrashed, true // torn: prefix lands, then dead
	}
	switch {
	case u < in.cfg.Transient:
		in.transients.Add(1)
		// Torn transient write: a prefix may land before the error, as
		// with a real interrupted write; the retry loop must re-issue
		// the tail, not the whole buffer.
		return in.prefixLen(op, n) / 2, ErrTransient, true
	case u < in.cfg.Transient+in.cfg.ENOSPC:
		in.enospcs.Add(1)
		return 0, syscall.ENOSPC, true
	case u < in.cfg.Transient+in.cfg.ENOSPC+in.cfg.Short && n >= 2:
		in.shorts.Add(1)
		return in.prefixLen(op, n), nil, true
	}
	return 0, nil, false
}

// metaErr gates non-data operations (open, rename, sync, ...): they
// never fault transiently, but after the crash point everything fails.
func (in *Injector) metaErr() error {
	if in.crashed.Load() {
		return ErrCrashed
	}
	return nil
}

func (in *Injector) Create(name string) (File, error) {
	if err := in.metaErr(); err != nil {
		return nil, err
	}
	f, err := in.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, in: in}, nil
}

func (in *Injector) Open(name string) (File, error) {
	if err := in.metaErr(); err != nil {
		return nil, err
	}
	f, err := in.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, in: in}, nil
}

func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err := in.metaErr(); err != nil {
		return nil, err
	}
	f, err := in.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, in: in}, nil
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if err := in.metaErr(); err != nil {
		return nil, err
	}
	f, err := in.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, in: in}, nil
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if err := in.metaErr(); err != nil {
		return err
	}
	return in.inner.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	if err := in.metaErr(); err != nil {
		return err
	}
	return in.inner.Remove(name)
}

func (in *Injector) Stat(name string) (os.FileInfo, error) {
	if err := in.metaErr(); err != nil {
		return nil, err
	}
	return in.inner.Stat(name)
}

// faultFile routes every data op through the injector's decision
// machinery before (possibly) touching the wrapped file.
type faultFile struct {
	f  File
	in *Injector
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if take, err, inject := ff.in.readFault(len(p)); inject {
		if take > 0 {
			n, rerr := ff.f.Read(p[:take])
			if rerr != nil {
				return n, rerr
			}
			return n, err
		}
		return 0, err
	}
	return ff.f.Read(p)
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if take, err, inject := ff.in.readFault(len(p)); inject {
		if take > 0 {
			n, rerr := ff.f.ReadAt(p[:take], off)
			if rerr != nil {
				return n, rerr
			}
			return n, err
		}
		return 0, err
	}
	return ff.f.ReadAt(p, off)
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if take, err, inject := ff.in.writeFault(len(p)); inject {
		if take > 0 {
			n, werr := ff.f.Write(p[:take])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return ff.f.Write(p)
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if take, err, inject := ff.in.writeFault(len(p)); inject {
		if take > 0 {
			n, werr := ff.f.WriteAt(p[:take], off)
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return ff.f.WriteAt(p, off)
}

func (ff *faultFile) Close() error {
	// Close always reaches the real file — leaking descriptors would
	// make crash tests flaky — but reports the crash afterwards.
	err := ff.f.Close()
	if ff.in.crashed.Load() {
		return ErrCrashed
	}
	return err
}

func (ff *faultFile) Sync() error {
	if err := ff.in.metaErr(); err != nil {
		return err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Name() string                 { return ff.f.Name() }
func (ff *faultFile) Stat() (os.FileInfo, error)   { return ff.f.Stat() }
func (ff *faultFile) Chmod(mode os.FileMode) error { return ff.f.Chmod(mode) }

// Rand returns a deterministic RNG derived from the injector's seed,
// for harnesses that need auxiliary randomness (e.g. picking kill
// points) without touching the injection stream.
func (in *Injector) Rand() *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix64(uint64(in.cfg.Seed)))))
}
