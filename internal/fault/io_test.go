package fault

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
)

// step scripts one call on a scriptedDev: move take bytes (-1: all that
// was asked for), then return err.
type step struct {
	take int
	err  error
}

// call records one ReadAt/WriteAt the transfer loop issued.
type call struct {
	off int64
	n   int
}

// scriptedDev is an in-memory ReaderAt/WriterAt whose first calls follow
// a script; once the script runs out every call transfers in full.
type scriptedDev struct {
	data   []byte
	script []step
	calls  []call
}

func (d *scriptedDev) next(p []byte, off int64) (int, error) {
	d.calls = append(d.calls, call{off, len(p)})
	s := step{take: -1}
	if len(d.script) > 0 {
		s, d.script = d.script[0], d.script[1:]
	}
	if s.take < 0 || s.take > len(p) {
		s.take = len(p)
	}
	return s.take, s.err
}

func (d *scriptedDev) ReadAt(p []byte, off int64) (int, error) {
	n, err := d.next(p, off)
	return copy(p[:n], d.data[off:]), err
}

func (d *scriptedDev) WriteAt(p []byte, off int64) (int, error) {
	n, err := d.next(p, off)
	return copy(d.data[off:], p[:n]), err
}

// stalls returns k transient steps that move no bytes.
func stalls(k int) []step {
	s := make([]step, k)
	for i := range s {
		s[i] = step{0, ErrTransient}
	}
	return s
}

// TestTransferLoop pins the transfer loop's contract on a scripted
// device, in both directions: short IO fills, a torn transient write
// re-issues only its tail, any progress resets the retry budget, a fifth
// stalled transient gives up (and is counted), (0, nil) is
// io.ErrNoProgress, and fatal errors return without a retry.
func TestTransferLoop(t *testing.T) {
	const size = 10
	cases := []struct {
		name    string
		script  []step
		wantErr error
		calls   []call // nil: not checked
		retries int64
		gaveup  int64
	}{
		{name: "short transfers fill",
			script: []step{{3, nil}, {2, nil}},
			calls:  []call{{0, 10}, {3, 7}, {5, 5}}},
		{name: "torn transient re-issues only the tail",
			script:  []step{{4, ErrTransient}},
			calls:   []call{{0, 10}, {4, 6}},
			retries: 1},
		{name: "progress resets the budget",
			script:  append(append(stalls(4), step{1, nil}), stalls(4)...),
			retries: 8},
		{name: "five stalled transients give up",
			script:  stalls(5),
			wantErr: ErrTransient,
			retries: 4, gaveup: 1},
		{name: "no progress without error",
			script:  []step{{0, nil}},
			wantErr: io.ErrNoProgress,
			calls:   []call{{0, 10}}},
		{name: "ENOSPC is fatal",
			script:  []step{{0, syscall.ENOSPC}},
			wantErr: syscall.ENOSPC,
			calls:   []call{{0, 10}}},
		{name: "crash is fatal",
			script:  []step{{3, ErrCrashed}},
			wantErr: ErrCrashed,
			calls:   []call{{0, 10}}},
	}
	src := []byte("0123456789")
	for _, tc := range cases {
		for _, dir := range []string{"read", "write"} {
			t.Run(tc.name+"/"+dir, func(t *testing.T) {
				dev := &scriptedDev{data: make([]byte, size), script: append([]step(nil), tc.script...)}
				buf := make([]byte, size)
				var rs RetryStats
				var err error
				if dir == "read" {
					copy(dev.data, src)
					err = ReadFullAt(dev, buf, 0, &rs)
				} else {
					copy(buf, src)
					err = WriteFullAt(dev, buf, 0, &rs)
				}
				if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				if tc.wantErr == nil && !bytes.Equal(dev.data, buf) {
					t.Fatalf("transferred %q, want %q", buf, dev.data)
				}
				if tc.calls != nil && !slices.Equal(dev.calls, tc.calls) {
					t.Fatalf("calls = %v, want %v", dev.calls, tc.calls)
				}
				if got := rs.Retries.Load(); got != tc.retries {
					t.Fatalf("Retries = %d, want %d", got, tc.retries)
				}
				if got := rs.Gaveup.Load(); got != tc.gaveup {
					t.Fatalf("Gaveup = %d, want %d", got, tc.gaveup)
				}
			})
		}
	}
}

// streamDev is an io.Writer whose first calls follow a script.
type streamDev struct {
	bytes.Buffer
	script []step
}

func (s *streamDev) Write(p []byte) (int, error) {
	st := step{take: -1}
	if len(s.script) > 0 {
		st, s.script = s.script[0], s.script[1:]
	}
	if st.take < 0 || st.take > len(p) {
		st.take = len(p)
	}
	s.Buffer.Write(p[:st.take])
	return st.take, st.err
}

// TestStrictWriter: the stream form appends a torn transient's tail and
// a short write's remainder exactly once, and reports the full count.
func TestStrictWriter(t *testing.T) {
	dev := &streamDev{script: []step{{2, nil}, {3, ErrTransient}, {0, ErrTransient}}}
	var rs RetryStats
	n, err := StrictWriter(dev, &rs).Write([]byte("0123456789"))
	if err != nil || n != 10 {
		t.Fatalf("Write = (%d, %v), want (10, nil)", n, err)
	}
	if got := dev.String(); got != "0123456789" {
		t.Fatalf("stream holds %q", got)
	}
	if rs.Retries.Load() != 2 {
		t.Fatalf("Retries = %d, want 2", rs.Retries.Load())
	}
}

// TestAtomicWriteUnderWeather: AtomicWrite through an injector raining
// transient and short writes still lands the exact bytes, world-readable,
// with no temp file left behind.
func TestAtomicWriteUnderWeather(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	want := bytes.Repeat([]byte("atomic-write "), 500)
	inj := NewInjector(nil, Config{Seed: 3, Transient: 0.1, Short: 0.1})
	for i := 0; i < 4; i++ {
		err := AtomicWrite(inj, path, ".tmp-*", func(w io.Writer) error {
			for off := 0; off < len(want); off += 100 {
				if _, err := w.Write(want[off:min(off+100, len(want))]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("AtomicWrite %d: %v", i, err)
		}
	}
	if tr, sh, _ := inj.Injected(); tr == 0 || sh == 0 {
		t.Fatalf("injected %d transients, %d shorts; want both", tr, sh)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back %d bytes (err %v), want %d exact bytes", len(got), err, len(want))
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Fatalf("mode = %v, want 0644", st.Mode().Perm())
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}
