package ckpt

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/nn"
)

func sampleFile() *File {
	return &File{
		Version: Version,
		Task:    "lp",
		Epoch:   3,
		Seed:    42,
		Params: []nn.ParamState{
			{Name: "w", Rows: 2, Cols: 2, Value: []float32{1, 2, 3, 4}, M: []float32{0, 0, 0, 0}, V: []float32{0, 0, 0, 0}},
		},
		TableRows: 2, TableCols: 2,
		Table:    []float32{5, 6, 7, 8},
		OptState: []float32{0.1, 0.2, 0.3, 0.4},
		Model: ModelMeta{
			Kind: KindDistMult, Dim: 2, NumRels: 1, FeatureDim: 2,
		},
		DatasetUUID: "test-uuid",
	}
}

// leftoverTemps lists .ckpt-* temp files in dir; atomic writes must never
// leave one behind, whether they succeed or fail.
func leftoverTemps(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, ".ckpt-*"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	return matches
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	want := sampleFile()
	if err := Write(nil, path, want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(nil, path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Task != want.Task || got.Epoch != want.Epoch || got.Seed != want.Seed {
		t.Errorf("header mismatch: got %+v", got)
	}
	if len(got.Table) != len(want.Table) {
		t.Fatalf("table length: got %d want %d", len(got.Table), len(want.Table))
	}
	for i := range want.Table {
		if got.Table[i] != want.Table[i] {
			t.Errorf("table[%d]: got %v want %v", i, got.Table[i], want.Table[i])
		}
	}
	if got.Model.Kind != KindDistMult || got.Model.Dim != 2 || got.Model.NumRels != 1 || got.Model.FeatureDim != 2 {
		t.Errorf("model meta mismatch: got %+v", got.Model)
	}
	if left := leftoverTemps(t, dir); len(left) != 0 {
		t.Errorf("temp files left behind after successful Write: %v", left)
	}
}

// os.CreateTemp creates files 0600; a checkpoint that keeps that mode is
// invisible to any other user (e.g. a serving process) after rename.
// Write must publish it world-readable like every other artifact.
func TestWriteFileMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := Write(nil, path, sampleFile()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if perm := info.Mode().Perm(); perm != 0o644 {
		t.Errorf("checkpoint mode = %o, want 644", perm)
	}
}

// A failed write (simulating a short write / encode error) must leave no
// temp file behind and must not disturb an existing checkpoint at the
// destination.
func TestAtomicWriteFailureLeavesDestination(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	if err := Write(nil, path, sampleFile()); err != nil {
		t.Fatalf("seed Write: %v", err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read seed checkpoint: %v", err)
	}

	boom := errors.New("short write")
	err = fault.AtomicWrite(nil, path, ".ckpt-*", func(w io.Writer) error {
		w.Write([]byte("partial garbage"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("AtomicWrite error = %v, want %v", err, boom)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("destination gone after failed write: %v", err)
	}
	if string(after) != string(before) {
		t.Errorf("failed write corrupted the existing checkpoint")
	}
	if left := leftoverTemps(t, dir); len(left) != 0 {
		t.Errorf("temp files left behind after failed write: %v", left)
	}
	if got, err := Read(nil, path); err != nil || got.Epoch != 3 {
		t.Errorf("existing checkpoint unreadable after failed write: %v", err)
	}
}

func TestWriteOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	first := sampleFile()
	if err := Write(nil, path, first); err != nil {
		t.Fatalf("first Write: %v", err)
	}
	second := sampleFile()
	second.Epoch = 9
	if err := Write(nil, path, second); err != nil {
		t.Fatalf("second Write: %v", err)
	}
	got, err := Read(nil, path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Epoch != 9 {
		t.Errorf("epoch = %d, want 9 (overwrite not visible)", got.Epoch)
	}
	if left := leftoverTemps(t, dir); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}
