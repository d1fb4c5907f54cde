package marius_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/marius"
)

// lpSession builds an LP session over a freshly generated (identical)
// graph; workers=1 keeps the batch order deterministic so resumed runs
// reproduce the original trajectory exactly.
func lpSession(t *testing.T, disk bool, dir string, extra ...marius.Option) *marius.Session {
	t.Helper()
	g := gen.KG(gen.KGConfig{
		NumEntities: 800, NumRelations: 8, NumEdges: 10000,
		ZipfS: 1.2, ValidFrac: 0.05, TestFrac: 0.05, Seed: 11,
	})
	opts := []marius.Option{
		marius.WithModel(marius.GraphSage), marius.WithFanouts(8),
		marius.WithDim(16), marius.WithBatchSize(512), marius.WithNegatives(64),
		marius.WithWorkers(1), marius.WithSeed(11),
	}
	if disk {
		opts = append(opts, marius.WithDisk(dir, marius.Partitions(8), marius.Capacity(4), marius.LogicalPartitions(4)))
	}
	sess, err := marius.New(marius.LinkPrediction(), g, append(opts, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func ncSession(t *testing.T) *marius.Session {
	t.Helper()
	g := gen.SBM(*smallNC(21))
	sess, err := marius.New(marius.NodeClassification(), g,
		marius.WithModel(marius.GraphSage), marius.WithFanouts(8, 8),
		marius.WithDim(16), marius.WithBatchSize(256),
		marius.WithWorkers(1), marius.WithSeed(21),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// The headline checkpoint property: save after training, restore into a
// freshly built session over an identically generated graph, and the
// evaluation metrics are bit-identical.
func TestCheckpointRoundTripIdenticalMetrics(t *testing.T) {
	for _, disk := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "lp.ckpt")

		orig := lpSession(t, disk, t.TempDir())
		if _, err := orig.Run(context.Background(), marius.Epochs(2)); err != nil {
			t.Fatal(err)
		}
		if err := orig.Save(path); err != nil {
			t.Fatal(err)
		}
		want, err := orig.Evaluate(marius.ValidSplit)
		if err != nil {
			t.Fatal(err)
		}
		orig.Close()

		restored := lpSession(t, disk, t.TempDir())
		defer restored.Close()
		if err := restored.Restore(path); err != nil {
			t.Fatal(err)
		}
		if restored.Task().Epoch() != 2 {
			t.Fatalf("restored epoch %d, want 2", restored.Task().Epoch())
		}
		got, err := restored.Evaluate(marius.ValidSplit)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value {
			t.Fatalf("disk=%v: restored MRR %.6f != saved MRR %.6f", disk, got.Value, want.Value)
		}
	}
}

// Resuming training from a checkpoint must continue the exact trajectory:
// 2 epochs + save + restore + 2 epochs == 4 straight epochs.
func TestCheckpointResumeContinuesTrajectory(t *testing.T) {
	straight := lpSession(t, false, "")
	if _, err := straight.Run(context.Background(), marius.Epochs(4)); err != nil {
		t.Fatal(err)
	}
	want, err := straight.Evaluate(marius.ValidSplit)
	if err != nil {
		t.Fatal(err)
	}
	straight.Close()

	path := filepath.Join(t.TempDir(), "resume.ckpt")
	first := lpSession(t, false, "")
	if _, err := first.Run(context.Background(), marius.Epochs(2), marius.CheckpointTo(path, 2)); err != nil {
		t.Fatal(err)
	}
	first.Close()

	second := lpSession(t, false, "")
	defer second.Close()
	if err := second.Restore(path); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Run(context.Background(), marius.Epochs(2)); err != nil {
		t.Fatal(err)
	}
	got, err := second.Evaluate(marius.ValidSplit)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value {
		t.Fatalf("resumed MRR %.6f != straight-through MRR %.6f", got.Value, want.Value)
	}
}

func TestCheckpointNCRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nc.ckpt")
	orig := ncSession(t)
	if _, err := orig.Run(context.Background(), marius.Epochs(3)); err != nil {
		t.Fatal(err)
	}
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	want, err := orig.Evaluate(marius.TestSplit)
	if err != nil {
		t.Fatal(err)
	}
	orig.Close()

	restored := ncSession(t)
	defer restored.Close()
	if err := restored.Restore(path); err != nil {
		t.Fatal(err)
	}
	got, err := restored.Evaluate(marius.TestSplit)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value {
		t.Fatalf("restored accuracy %.6f != saved accuracy %.6f", got.Value, want.Value)
	}
}

func TestCheckpointTaskMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lp.ckpt")
	lp := lpSession(t, false, "")
	if err := lp.Save(path); err != nil {
		t.Fatal(err)
	}
	lp.Close()

	nc := ncSession(t)
	defer nc.Close()
	if err := nc.Restore(path); !errors.Is(err, marius.ErrTaskMismatch) {
		t.Fatalf("err = %v, want ErrTaskMismatch", err)
	}
}

// TestRestoreMismatchNamesField: shape disagreements between checkpoint
// and session are rejected at Restore with a typed error naming the
// offending field, instead of panicking in a kernel mid-forward. The
// same error matches both the task-mismatch sentinel (compatibility)
// and ErrCheckpointMismatch (the contract shared with the inference
// loader).
func TestRestoreMismatchNamesField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nc.ckpt")
	orig := ncSession(t)
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	orig.Close()

	other, err := marius.New(marius.NodeClassification(), gen.SBM(*smallNC(21)),
		marius.WithModel(marius.GraphSage), marius.WithFanouts(8, 8),
		marius.WithDim(32), marius.WithBatchSize(256), // dim 32: checkpoint was dim 16
		marius.WithWorkers(1), marius.WithSeed(21),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	err = other.Restore(path)
	if !errors.Is(err, marius.ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
	if !strings.Contains(err.Error(), "dim") {
		t.Fatalf("error %q does not name the offending field", err)
	}
}

// TestRestoreUnderIOWeather: Restore reads the checkpoint through the
// session's WithFaults filesystem, and the read goes through the
// retrying transfer loop, so a restore under seeded transient errors or
// short reads lands exactly the state a clean restore does — the two
// sessions re-save byte-identical checkpoints.
func TestRestoreUnderIOWeather(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lp.ckpt")
	orig := lpSession(t, false, "")
	if _, err := orig.Run(context.Background(), marius.Epochs(1)); err != nil {
		t.Fatal(err)
	}
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	orig.Close()

	resave := func(sess *marius.Session, name string) []byte {
		t.Helper()
		out := filepath.Join(dir, name)
		if err := sess.Save(out); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	clean := lpSession(t, false, "")
	defer clean.Close()
	if err := clean.Restore(path); err != nil {
		t.Fatal(err)
	}
	want := resave(clean, "clean.ckpt")

	for _, w := range []struct {
		name string
		cfg  fault.Config
	}{
		{"transient", fault.Config{Transient: 0.25}},
		{"short", fault.Config{Short: 0.25}},
	} {
		// One whole-file read is a single injector decision, so several
		// seeds make sure the weather actually hits the restore.
		var fired int64
		for seed := int64(1); seed <= 4; seed++ {
			cfg := w.cfg
			cfg.Seed = seed
			inj := fault.NewInjector(nil, cfg)
			sess := lpSession(t, false, "", marius.WithFaults(inj))
			if err := sess.Restore(path); err != nil {
				t.Fatalf("%s seed %d: restore: %v", w.name, seed, err)
			}
			tr, sh, _ := inj.Injected()
			fired += tr + sh
			if got := resave(sess, "weather.ckpt"); !bytes.Equal(got, want) {
				t.Fatalf("%s seed %d: restored state differs from a clean restore", w.name, seed)
			}
			sess.Close()
		}
		if fired == 0 {
			t.Fatalf("%s: no fault hit the restore in 4 seeds; the test proves nothing", w.name)
		}
	}
}
