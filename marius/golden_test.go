package marius_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/marius"
)

// goldenRun pins one configuration's trajectory: the float64 bits of each
// epoch's loss and train metric over two epochs, and the SHA-256 of the
// checkpoint saved afterwards.
type goldenRun struct {
	name string
	lp   bool // link prediction on smallKG(61), else node classification on smallNC(61)
	opts func(dir string) []marius.Option
	want golden
}

type golden struct {
	loss, metric [2]uint64
	ckpt         string
}

// TestGoldenTrajectory pins the exact training trajectory of every trainer
// path (NC and LP, in memory and on disk, serial and pipelined, DENSE and
// baseline, GNN and decoder-only) across commits. The determinism tests
// only compare two runs of the same binary; this one fails when a change
// to the training code moves a single bit of a loss, metric or
// checkpoint.
//
// The wanted values were recorded on amd64 (default GOAMD64) before the NC
// and LP trainers were merged into one.
func TestGoldenTrajectory(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; on %s Go may fuse multiply-add (it does on arm64, ppc64le and s390x), so the float bits can differ", runtime.GOARCH)
	}
	nc := func(extra ...marius.Option) []marius.Option {
		return append([]marius.Option{
			marius.WithModel(marius.GraphSage), marius.WithFanouts(6, 6),
			marius.WithDim(16), marius.WithBatchSize(128), marius.WithSeed(61),
		}, extra...)
	}
	lp := func(extra ...marius.Option) []marius.Option {
		return append([]marius.Option{
			marius.WithModel(marius.GraphSage),
			marius.WithDim(16), marius.WithBatchSize(512), marius.WithNegatives(64),
			marius.WithSeed(61),
		}, extra...)
	}
	runs := []goldenRun{
		{
			name: "nc-mem-serial",
			opts: func(dir string) []marius.Option { return nc(marius.WithWorkers(1)) },
			want: golden{loss: [2]uint64{0x3ffbbe2ba0000000, 0x3ff0be6fc0000000}, metric: [2]uint64{0x3fdd111111111111, 0x3fe2000000000000}, ckpt: "208ad20bd7c8a557801abffdf879c2ef71ba97af83b68017d23a1a6d97712dfc"},
		},
		{
			name: "nc-disk-pipelined",
			opts: func(dir string) []marius.Option {
				return nc(marius.WithWorkers(4), marius.WithPipeline(2),
					marius.WithDisk(dir, marius.Partitions(8), marius.Capacity(4)))
			},
			want: golden{loss: [2]uint64{0x3ffc6d75f0000000, 0x3ff21ede60000000}, metric: [2]uint64{0x3fdb333333333333, 0x3fe0888888888889}, ckpt: "7f880f8b1a2ca6481b79ca83a068d6052a9314fd3e155c53bfc8d9f4e1ff0326"},
		},
		{
			name: "nc-baseline",
			opts: func(dir string) []marius.Option { return nc(marius.WithBaseline()) },
			want: golden{loss: [2]uint64{0x3ffb5b36e0000000, 0x3ff0f898d8000000}, metric: [2]uint64{0x3fdc444444444444, 0x3fe199999999999a}, ckpt: "b6a3d2f4023adcdf1f997146cbbea9de7b3834d14f023528186cb557214f1939"},
		},
		{
			name: "lp-sage-distmult-mem", lp: true,
			opts: func(dir string) []marius.Option { return lp(marius.WithFanouts(6), marius.WithWorkers(2)) },
			want: golden{loss: [2]uint64{0x4010913f46666666, 0x400e0cd7a2222222}, metric: [2]uint64{0x3fb9e7d82bd2a56b, 0x3fc64768e3a2fafd}, ckpt: "1b46d303caee4f3353278f1df05c88e6f489b2936ab8fb251f377b76c8e0c899"},
		},
		{
			name: "lp-disk-comet-pipelined", lp: true,
			opts: func(dir string) []marius.Option {
				return lp(marius.WithFanouts(6), marius.WithWorkers(4), marius.WithPipeline(2),
					marius.WithDisk(dir, marius.Partitions(8), marius.Capacity(4), marius.LogicalPartitions(4)),
					marius.WithPolicy(marius.COMET))
			},
			want: golden{loss: [2]uint64{0x40108262f6969697, 0x400e72d8b0f0f0f1}, metric: [2]uint64{0x3fbcafb92c7de779, 0x3fc48138f5d45f43}, ckpt: "05784eb06b94d03bf7f83f042d02a0d00bdde29f1a7efce6642a433e3055099e"},
		},
		{
			name: "lp-decoder-only", lp: true,
			opts: func(dir string) []marius.Option {
				return lp(marius.WithModel(marius.DistMultOnly), marius.WithFanouts(6), marius.WithWorkers(2))
			},
			want: golden{loss: [2]uint64{0x4010980d9999999a, 0x400f791086666666}, metric: [2]uint64{0x3fc0baf54275cbdc, 0x3fc8030d8ecc7628}, ckpt: "0a20ae78d5c0be2e669ddf5e13935367da8940d941906c52e536146d4671d630"},
		},
		{
			name: "lp-baseline", lp: true,
			opts: func(dir string) []marius.Option {
				// Two layers: with one, layered sampling draws exactly the
				// DENSE sample and the run would repeat lp-sage-distmult-mem.
				return lp(marius.WithBaseline(), marius.WithFanouts(6, 6))
			},
			want: golden{loss: [2]uint64{0x401027ef46666666, 0x400ccd6b8ccccccd}, metric: [2]uint64{0x3fc0d9974a594e61, 0x3fc8bb985bfd3e08}, ckpt: "c3d4796586793543b305ce90f8f5d97a827dc2703fd8e9b2fed82bdb34e306c5"},
		},
	}
	var report strings.Builder
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			got := runGolden(t, r)
			fmt.Fprintf(&report, "%s: want: golden{loss: [2]uint64{%#x, %#x}, metric: [2]uint64{%#x, %#x}, ckpt: %q},\n",
				r.name, got.loss[0], got.loss[1], got.metric[0], got.metric[1], got.ckpt)
			if got != r.want {
				t.Errorf("trajectory moved:\n got %+v\nwant %+v", got, r.want)
			}
		})
	}
	if t.Failed() {
		t.Logf("observed values:\n%s", report.String())
	}
}

func runGolden(t *testing.T, r goldenRun) (got golden) {
	t.Helper()
	dir := t.TempDir()
	task, g := marius.NodeClassification(), gen.SBM(*smallNC(61))
	if r.lp {
		task, g = marius.LinkPrediction(), gen.KG(smallKG(61))
	}
	sess, err := marius.New(task, g, r.opts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Run(context.Background(), marius.Epochs(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("ran %d epochs, want 2", len(res.Epochs))
	}
	for e, st := range res.Epochs {
		got.loss[e], got.metric[e] = math.Float64bits(st.Loss), math.Float64bits(st.Metric)
	}
	path := filepath.Join(dir, "golden.ckpt")
	if err := sess.Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(b)
	got.ckpt = hex.EncodeToString(h[:])
	return got
}
