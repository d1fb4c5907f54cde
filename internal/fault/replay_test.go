package fault

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// replayOps is the number of ops each file receives in
// TestInjectorReplaysAcrossInterleavings.
const replayOps = 40

// replayFiles opens the files of one replay run: three named files and
// one CreateTemp file, whose random name must not affect its schedule.
func replayFiles(t *testing.T, in *Injector) []File {
	t.Helper()
	dir := t.TempDir()
	var files []File
	for i := 0; i < 3; i++ {
		f, err := in.Create(filepath.Join(dir, fmt.Sprintf("f%d.bin", i)))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	f, err := in.CreateTemp(dir, "part-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	return append(files, f)
}

// replayOp performs file f's step-th op and describes its outcome. The
// op mix covers positional writes (two per offset), reads,
// and stream writes.
func replayOp(f File, step int) string {
	buf := make([]byte, 48)
	off := int64(step/4) * 48
	var n int
	var err error
	switch step % 4 {
	case 0, 2:
		n, err = f.WriteAt(buf, off)
	case 1:
		n, err = f.ReadAt(buf, off)
	case 3:
		n, err = f.Write(buf)
	}
	return fmt.Sprintf("n=%d err=%v", n, err)
}

// runSchedule drives one goroutine per file, each performing its ops in
// order; order lists which file takes its next op at each turn, so the
// interleaving across goroutines is exactly order. It returns every
// file's outcomes.
func runSchedule(files []File, order []int) [][]string {
	out := make([][]string, len(files))
	turn := make([]chan struct{}, len(files))
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := range files {
		turn[i] = make(chan struct{})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for step := 0; step < replayOps; step++ {
				<-turn[i]
				out[i] = append(out[i], replayOp(files[i], step))
				done <- struct{}{}
			}
		}(i)
	}
	for _, i := range order {
		turn[i] <- struct{}{}
		<-done
	}
	wg.Wait()
	return out
}

// runFree drives the same per-file op sequences with no coordination at
// all, so the scheduler picks the interleaving.
func runFree(files []File) [][]string {
	out := make([][]string, len(files))
	var wg sync.WaitGroup
	for i := range files {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for step := 0; step < replayOps; step++ {
				out[i] = append(out[i], replayOp(files[i], step))
			}
		}(i)
	}
	wg.Wait()
	return out
}

func TestInjectorReplaysAcrossInterleavings(t *testing.T) {
	cfg := Config{Seed: 21, Transient: 0.2, Short: 0.2, ENOSPC: 0.05}
	const nfiles = 4

	// One file after another.
	var sequential []int
	for i := 0; i < nfiles; i++ {
		for s := 0; s < replayOps; s++ {
			sequential = append(sequential, i)
		}
	}
	// Round robin, last file first.
	var reversed []int
	for s := 0; s < replayOps; s++ {
		for i := nfiles - 1; i >= 0; i-- {
			reversed = append(reversed, i)
		}
	}

	type result struct {
		outcomes [][]string
		injected [3]int64
	}
	run := func(drive func([]File) [][]string) result {
		in := NewInjector(nil, cfg)
		files := replayFiles(t, in)
		r := result{outcomes: drive(files)}
		for _, f := range files {
			f.Close()
		}
		r.injected[0], r.injected[1], r.injected[2] = in.Injected()
		return r
	}
	want := run(func(fs []File) [][]string { return runSchedule(fs, sequential) })
	if want.injected[0] == 0 || want.injected[1] == 0 {
		t.Fatalf("schedule injected too little to compare: %v", want.injected)
	}
	for name, drive := range map[string]func([]File) [][]string{
		"reversed round robin": func(fs []File) [][]string { return runSchedule(fs, reversed) },
		"free-running":         runFree,
	} {
		got := run(drive)
		for i := range want.outcomes {
			for s := range want.outcomes[i] {
				if got.outcomes[i][s] != want.outcomes[i][s] {
					t.Fatalf("%s: file %d op %d: %s, sequential run gave %s",
						name, i, s, got.outcomes[i][s], want.outcomes[i][s])
				}
			}
		}
		if got.injected != want.injected {
			t.Fatalf("%s: Injected() = %v, sequential run gave %v", name, got.injected, want.injected)
		}
	}
}
