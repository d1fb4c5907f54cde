package train

import (
	"math/rand"

	"repro/internal/decoder"
	"repro/internal/policy"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// lpTask is link prediction's task hook.
type lpTask struct{}

// NewLP returns a link-prediction trainer with defaults applied.
func NewLP(cfg Config, src *Source, pol policy.Policy) *Trainer {
	return newTrainer(cfg, src, pol, lpTask{})
}

// examples reads the training-edge buckets assigned to the visit (X_i)
// and restricts negative sampling to the resident nodes (paper §3).
func (lpTask) examples(t *Trainer, v *visit, pv *policy.Visit, _ int, vrng *rand.Rand) (int, error) {
	edges := t.edgeBufs.get()
	for _, b := range pv.Buckets {
		var err error
		if edges, err = t.Src.Edges.ReadBucket(int(b[0]), int(b[1]), edges); err != nil {
			t.edgeBufs.put(edges)
			return 0, err
		}
	}
	vrng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	v.edges = edges
	v.pool = t.Src.residentNodePool(t.idBufs.get(), v.mem)
	return len(edges), nil
}

// inputs samples the batch's shared negatives from the visit's pool and
// dedups endpoints and negatives into the batch's uniq/index buffers,
// preserving first-occurrence order (as uniqueIndex does: all sources,
// then all destinations, then the negatives).
func (lpTask) inputs(b *batcher, v *visit, pb *prepared, lo, hi int, seed int64) []int32 {
	t := b.t
	edges := v.edges[lo:hi]
	pb.rels = pb.rels[:0]
	for _, e := range edges {
		pb.rels = append(pb.rels, e.Rel)
	}
	if b.neg == nil {
		b.neg = sampler.NewNegativePool(nil, 0)
	}
	b.neg.SetPool(v.pool)
	b.neg.Reseed(seed + 1)
	b.negs = b.neg.Sample(b.negs[:0], t.Cfg.Negatives)

	b.ded.reset(t.Src.NumNodes)
	pb.uniq = pb.uniq[:0]
	pb.srcIdx, pb.dstIdx, pb.negIdx = pb.srcIdx[:0], pb.dstIdx[:0], pb.negIdx[:0]
	for _, e := range edges {
		pb.srcIdx = append(pb.srcIdx, b.ded.index(e.Src, &pb.uniq))
	}
	for _, e := range edges {
		pb.dstIdx = append(pb.dstIdx, b.ded.index(e.Dst, &pb.uniq))
	}
	for _, id := range b.negs {
		pb.negIdx = append(pb.negIdx, b.ded.index(id, &pb.uniq))
	}
	return pb.uniq
}

// loss is the decoder's contrastive loss over the positives and shared
// negatives, with the batch MRR as the metric.
func (lpTask) loss(t *Trainer, params map[string]*tensor.Node, enc *tensor.Node, pb *prepared) (*tensor.Node, float64) {
	lossNode, pos, negD, _ := t.Cfg.Decoder.Loss(t.tape, params, enc, pb.srcIdx, pb.dstIdx, pb.negIdx, pb.rels)
	return lossNode, decoder.BatchMRR(pos.Value, negD.Value)
}
