// Multi-relation API tests: decoder/relation option validation, the
// ranking-eval API, brute-force conformance of the session-level
// filtered MRR/Hits@k, bit-reproducibility across worker counts and
// ingest paths, and decoder checkpoint compatibility.
package marius_test

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/decoder"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/tensor"
	"repro/marius"
)

func TestDecoderAndRelationOptionErrors(t *testing.T) {
	nc := gen.SBM(*smallNC(1))
	lp := gen.KG(smallKG(2)) // 8 relation types
	cases := []struct {
		name   string
		task   marius.Task
		g      *graph.Graph
		opts   []marius.Option
		option string
	}{
		{"decoder on nc", marius.NodeClassification(), nc,
			[]marius.Option{marius.WithDecoder(marius.ComplEx)}, "WithDecoder"},
		{"relations on nc", marius.NodeClassification(), nc,
			[]marius.Option{marius.WithRelations(4)}, "WithRelations"},
		{"complex odd dim", marius.LinkPrediction(), lp,
			[]marius.Option{marius.WithDecoder(marius.ComplEx), marius.WithDim(9)}, "WithDecoder"},
		{"unknown decoder", marius.LinkPrediction(), lp,
			[]marius.Option{marius.WithDecoder(marius.DecoderKind(99))}, "WithDecoder"},
		{"relation table too small", marius.LinkPrediction(), lp,
			[]marius.Option{marius.WithRelations(4)}, "WithRelations"},
		{"non-positive relations", marius.LinkPrediction(), lp,
			[]marius.Option{marius.WithRelations(0)}, "WithRelations"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := marius.New(tc.task, tc.g, tc.opts...)
			if !errors.Is(err, marius.ErrBadValue) {
				t.Fatalf("err = %v, want ErrBadValue", err)
			}
			var oe *marius.OptionError
			if !errors.As(err, &oe) || oe.Option != tc.option {
				t.Fatalf("err %v blames %T, want *OptionError on %q", err, err, tc.option)
			}
		})
	}
}

func TestRankingEvalOptionErrors(t *testing.T) {
	lp, err := marius.New(marius.LinkPrediction(), gen.KG(smallKG(3)),
		marius.WithModel(marius.DistMultOnly), marius.WithDim(8), marius.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer lp.Close()
	if _, err := lp.Evaluate(marius.ValidSplit, marius.RankingEval(0)); !errors.Is(err, marius.ErrBadValue) {
		t.Fatalf("RankingEval(0): err = %v, want ErrBadValue", err)
	}

	nc, err := marius.New(marius.NodeClassification(), gen.SBM(*smallNC(4)),
		marius.WithDim(8), marius.WithFanouts(4, 4, 4), marius.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_, err = nc.Evaluate(marius.ValidSplit, marius.RankingEval())
	if !errors.Is(err, marius.ErrBadValue) {
		t.Fatalf("ranking eval on nc: err = %v, want ErrBadValue", err)
	}
	var oe *marius.OptionError
	if !errors.As(err, &oe) || oe.Option != "RankingEval" {
		t.Fatalf("err %v does not blame RankingEval", err)
	}
}

// decoderKinds pairs each public decoder option with its kind string.
var decoderKinds = []struct {
	kind string
	opt  marius.DecoderKind
}{
	{decoder.KindDistMult, marius.DistMult},
	{decoder.KindComplEx, marius.ComplEx},
	{decoder.KindTransE, marius.TransE},
}

// TestSessionRankingMatchesBruteForce is the end-to-end conformance test
// for the filtered-ranking protocol: for every decoder kind, the
// MRR/Hits@k the session API reports must equal — exactly, not
// approximately — a brute-force reference that rescoring every candidate
// for every held-out edge from the checkpointed model state, applying
// the documented rank rule (strictly-greater plus lower-ID ties,
// known true triples removed).
func TestSessionRankingMatchesBruteForce(t *testing.T) {
	const seed, dim = int64(31), 8
	kcfg := smallKG(seed)
	for _, tc := range decoderKinds {
		t.Run(tc.kind, func(t *testing.T) {
			sess, err := marius.New(marius.LinkPrediction(), gen.KG(kcfg),
				marius.WithModel(marius.DistMultOnly), marius.WithDecoder(tc.opt),
				marius.WithDim(dim), marius.WithNegatives(16), marius.WithBatchSize(256),
				marius.WithWorkers(2), marius.WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if _, err := sess.TrainEpoch(context.Background()); err != nil {
				t.Fatal(err)
			}
			res, err := sess.Evaluate(marius.ValidSplit, marius.RankingEval(1, 3, 10), marius.FilteredEval())
			if err != nil {
				t.Fatal(err)
			}
			if res.Protocol != marius.ProtocolRanking || !res.Filtered {
				t.Fatalf("protocol %q filtered %v, want ranking/filtered", res.Protocol, res.Filtered)
			}
			if res.Value != res.MRR {
				t.Fatalf("headline Value %v != MRR %v", res.Value, res.MRR)
			}

			// Rebuild the model state from the checkpoint.
			path := filepath.Join(t.TempDir(), "ckpt")
			if err := sess.Save(path); err != nil {
				t.Fatal(err)
			}
			cp, err := ckpt.Read(nil, path)
			if err != nil {
				t.Fatal(err)
			}
			tbl := tensor.New(cp.TableRows, cp.TableCols)
			copy(tbl.Data, cp.Table)
			ps := nn.NewParamSet()
			dec, err := decoder.New(tc.kind, ps, cp.Model.NumRels, dim, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			if err := ps.LoadState(cp.Params); err != nil {
				t.Fatal(err)
			}
			rel := dec.RelParam().Value

			// Reproduce the session's seeded relabeling on a freshly
			// generated identical graph, then index every known true triple
			// across all three splits.
			g := gen.KG(kcfg)
			partition.Apply(g, partition.RandomOrder(g.NumNodes, seed))
			type pair = int64
			key := func(a, r int32) pair { return int64(a)<<32 | int64(uint32(r)) }
			tails := map[pair]map[int32]bool{}
			heads := map[pair]map[int32]bool{}
			for _, split := range [][]graph.Edge{g.Edges, g.ValidEdges, g.TestEdges} {
				for _, e := range split {
					tk, hk := key(e.Src, e.Rel), key(e.Dst, e.Rel)
					if tails[tk] == nil {
						tails[tk] = map[int32]bool{}
					}
					if heads[hk] == nil {
						heads[hk] = map[int32]bool{}
					}
					tails[tk][e.Dst] = true
					heads[hk][e.Src] = true
				}
			}

			var tn []float32
			if dec.Norms() {
				tn = decoder.TableNorms(tbl)
			}
			q := make([]float32, dim)
			rankOf := func(target int32, known map[int32]bool) int64 {
				var qn float32
				if dec.Norms() {
					qn = decoder.SqNorm(q)
				}
				var cn float32
				if dec.Norms() {
					cn = tn[target]
				}
				ts := decoder.ScoreOne(dec, q, tbl.Row(int(target)), qn, cn)
				rank := int64(1)
				for c := 0; c < tbl.Rows; c++ {
					cand := int32(c)
					if cand == target || known[cand] {
						continue
					}
					if dec.Norms() {
						cn = tn[c]
					}
					sc := decoder.ScoreOne(dec, q, tbl.Row(c), qn, cn)
					if sc > ts || (sc == ts && cand < target) {
						rank++
					}
				}
				return rank
			}

			ks := []int{1, 3, 10}
			var sumRR float64
			hits := map[int]int64{}
			ranked := 0
			for _, e := range g.ValidEdges {
				relRow := rel.Row(int(e.Rel))
				dec.TailQueryInto(q, tbl.Row(int(e.Src)), relRow)
				tr := rankOf(e.Dst, tails[key(e.Src, e.Rel)])
				dec.HeadQueryInto(q, tbl.Row(int(e.Dst)), relRow)
				hr := rankOf(e.Src, heads[key(e.Dst, e.Rel)])
				for _, r := range []int64{tr, hr} {
					sumRR += 1 / float64(r)
					for _, k := range ks {
						if r <= int64(k) {
							hits[k]++
						}
					}
					ranked++
				}
			}
			wantMRR := sumRR / float64(ranked)
			if res.MRR != wantMRR {
				t.Fatalf("session MRR %v, brute force %v", res.MRR, wantMRR)
			}
			for _, k := range ks {
				want := float64(hits[k]) / float64(ranked)
				if res.Hits[k] != want {
					t.Fatalf("hits@%d: session %v, brute force %v", k, res.Hits[k], want)
				}
			}
		})
	}
}

// TestRankingBitReproducible: the filtered MRR/Hits must be bitwise
// identical across kernel worker counts and across the in-memory-graph
// and prepared-dataset ingest paths at the same seed.
func TestRankingBitReproducible(t *testing.T) {
	const seed = int64(41)
	kcfg := smallKG(seed)
	opts := func(workers int) []marius.Option {
		return []marius.Option{
			marius.WithModel(marius.DistMultOnly), marius.WithDecoder(marius.ComplEx),
			marius.WithDim(8), marius.WithNegatives(32), marius.WithBatchSize(512),
			marius.WithWorkers(workers), marius.WithSeed(seed),
		}
	}
	evalRanking := func(t *testing.T, sess *marius.Session) marius.EvalResult {
		t.Helper()
		if _, err := sess.TrainEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Evaluate(marius.ValidSplit, marius.RankingEval(), marius.FilteredEval())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	ref, err := marius.New(marius.LinkPrediction(), gen.KG(kcfg), opts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := evalRanking(t, ref)

	wide, err := marius.New(marius.LinkPrediction(), gen.KG(kcfg), opts(4)...)
	if err != nil {
		t.Fatal(err)
	}
	defer wide.Close()
	got := evalRanking(t, wide)
	if got.MRR != want.MRR || got.Hits[1] != want.Hits[1] || got.Hits[10] != want.Hits[10] {
		t.Fatalf("workers=4 ranking diverged: MRR %v vs %v, hits %v vs %v",
			got.MRR, want.MRR, got.Hits, want.Hits)
	}

	exp, err := dataset.Export(gen.KG(kcfg), t.TempDir(), "tsv")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := dataset.Ingest(exp.Config(dir, "lp", seed, 4)); err != nil {
		t.Fatal(err)
	}
	ds, err := marius.FromDataset(dir, opts(2)...)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	fromDS := evalRanking(t, ds)
	if fromDS.MRR != want.MRR || fromDS.Hits[1] != want.Hits[1] || fromDS.Hits[10] != want.Hits[10] {
		t.Fatalf("dataset-session ranking diverged: MRR %v vs %v, hits %v vs %v",
			fromDS.MRR, want.MRR, fromDS.Hits, want.Hits)
	}
}

// TestRestoreDecoderMismatch: restoring a checkpoint trained with one
// decoder into a session built with another must fail typed, naming the
// decoder field.
func TestRestoreDecoderMismatch(t *testing.T) {
	const seed = int64(51)
	kcfg := smallKG(seed)
	build := func(kind marius.DecoderKind) *marius.Session {
		t.Helper()
		sess, err := marius.New(marius.LinkPrediction(), gen.KG(kcfg),
			marius.WithModel(marius.DistMultOnly), marius.WithDecoder(kind),
			marius.WithDim(8), marius.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	path := filepath.Join(t.TempDir(), "complex.ckpt")
	orig := build(marius.ComplEx)
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	orig.Close()

	other := build(marius.TransE)
	defer other.Close()
	err := other.Restore(path)
	if !errors.Is(err, marius.ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
	if !strings.Contains(err.Error(), "decoder") {
		t.Fatalf("error %q does not name the decoder field", err)
	}
}
