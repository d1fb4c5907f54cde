package train

import (
	"context"
	"testing"

	"repro/internal/policy"
)

// TestBatchConstructionZeroAlloc: after one warm epoch, the batcher's
// hot path must not allocate for either task — LP's endpoint/negative
// buffers and stamp-based dedup, NC's label gather, and for both the
// DENSE sampling over the incremental index and the pooled prepared
// batches.
func TestBatchConstructionZeroAlloc(t *testing.T) {
	mem := []int{0, 1, 2, 3}
	cases := []struct {
		name  string
		build func(t *testing.T) (*Trainer, func(v *visit))
	}{
		{"lp", func(t *testing.T) (*Trainer, func(v *visit)) {
			tr, g, done := lpFixture(t, policy.InMemory{P: 4}, false, 4, 4, 51)
			t.Cleanup(done)
			return tr, func(v *visit) {
				v.pool = tr.Src.residentNodePool(nil, mem)
				v.edges = g.Edges[:2*tr.Cfg.BatchSize]
				v.n = len(v.edges)
				v.batchSeeds = []int64{101, 102}
			}
		}},
		{"nc", func(t *testing.T) (*Trainer, func(v *visit)) {
			tr, g := ncFixture(t, ModeDense, 52)
			return tr, func(v *visit) {
				v.targets = g.TrainNodes[:min(2*tr.Cfg.BatchSize, len(g.TrainNodes))]
				v.n = len(v.targets)
				v.batchSeeds = []int64{201, 202}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, fill := tc.build(t)
			if _, err := tr.TrainEpoch(context.Background()); err != nil {
				t.Fatal(err)
			}
			adj, err := tr.seg.refresh(tr.Src, mem)
			if err != nil {
				t.Fatal(err)
			}
			v := &visit{mem: mem, adj: adj}
			fill(v)
			b := tr.batchers[0]
			if b == nil { // worker 0 may not have built a batch in the warm epoch
				b = &batcher{t: tr}
			}
			for i := 0; i < 4; i++ { // warm the batch pools for this visit shape
				tr.putPB(b.prepare(v, i%2))
			}
			allocs := testing.AllocsPerRun(100, func() {
				pb := b.prepare(v, 0)
				tr.putPB(pb)
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s batch construction allocates %.1f/op, want 0", tc.name, allocs)
			}
		})
	}
}

// TestDeduperMatchesUniqueIndex: the stamp-based deduper must assign the
// same first-occurrence indices as the map-based uniqueIndex.
func TestDeduperMatchesUniqueIndex(t *testing.T) {
	groups := [][]int32{{5, 3, 5, 9}, {3, 9, 0}, {0, 5, 7}}
	wantU, wantIdx := uniqueIndex(groups...)

	var dd deduper
	dd.reset(10)
	var uniq []int32
	for gi, group := range groups {
		for ii, id := range group {
			if got := dd.index(id, &uniq); got != wantIdx[gi][ii] {
				t.Fatalf("group %d[%d]: index %d, want %d", gi, ii, got, wantIdx[gi][ii])
			}
		}
	}
	if len(uniq) != len(wantU) {
		t.Fatalf("uniq = %v, want %v", uniq, wantU)
	}
	for i := range uniq {
		if uniq[i] != wantU[i] {
			t.Fatalf("uniq = %v, want %v", uniq, wantU)
		}
	}
}
