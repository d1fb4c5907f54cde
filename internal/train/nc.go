package train

import (
	"math/rand"

	"repro/internal/eval"
	"repro/internal/policy"
	"repro/internal/tensor"
)

// ncTask is node classification's task hook. Labels index all graph
// nodes; trainNodes lists the labeled training nodes (paper §5.2: often
// only 1-10% of the graph).
type ncTask struct {
	labels     []int32
	trainNodes []int32

	// byPart caches trainNodes grouped by partition (the partitioning is
	// fixed per trainer), so a visit collects its targets without
	// scanning all training nodes. done marks the partitions whose
	// targets the current epoch has already consumed.
	byPart [][]int32
	done   []bool
}

// NewNC returns a node-classification trainer with defaults applied. The
// encoder's final layer must output the class logits.
func NewNC(cfg Config, src *Source, pol policy.Policy, labels []int32, trainNodes []int32) *Trainer {
	return newTrainer(cfg, src, pol, &ncTask{labels: labels, trainNodes: trainNodes})
}

// examples assigns the visit the training nodes whose partition became
// resident and has not been trained on yet this epoch. Under the §5.2
// NodeCache policy training nodes appear in the first visit's
// partitions; under the fallback rotation, each training node is
// consumed at the first visit where its partition is resident.
func (nc *ncTask) examples(t *Trainer, v *visit, _ *policy.Visit, vi int, vrng *rand.Rand) (int, error) {
	if nc.byPart == nil {
		nc.byPart = make([][]int32, t.Src.Part.NumPartitions)
		nc.done = make([]bool, t.Src.Part.NumPartitions)
		for _, id := range nc.trainNodes {
			p := t.Src.Part.Of(id)
			nc.byPart[p] = append(nc.byPart[p], id)
		}
	}
	if vi == 0 {
		clear(nc.done)
	}
	targets := t.idBufs.get()
	for _, p := range v.mem {
		if !nc.done[p] {
			nc.done[p] = true
			targets = append(targets, nc.byPart[p]...)
		}
	}
	vrng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	v.targets = targets
	return len(targets), nil
}

// inputs looks up the batch's labels; the targets themselves are the
// nodes to classify.
func (nc *ncTask) inputs(_ *batcher, v *visit, pb *prepared, lo, hi int, _ int64) []int32 {
	targets := v.targets[lo:hi]
	pb.labels = pb.labels[:0]
	for _, id := range targets {
		pb.labels = append(pb.labels, nc.labels[id])
	}
	return targets
}

// loss is softmax cross-entropy over the class logits, with train
// accuracy as the metric.
func (nc *ncTask) loss(t *Trainer, _ map[string]*tensor.Node, logits *tensor.Node, pb *prepared) (*tensor.Node, float64) {
	return t.tape.SoftmaxCrossEntropy(logits, pb.labels), eval.Accuracy(logits.Value, pb.labels)
}
