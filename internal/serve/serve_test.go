// Full-stack serving tests: differential against the training-side
// forward pass, micro-batching vs sequential equality, hot reload
// snapshot isolation, and load-time mismatch rejection. External test
// package: the tests drive training through marius, which itself imports
// internal/serve.
package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/dataset"
	"repro/internal/decoder"
	"repro/internal/encode"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/marius"
)

// prepNC ingests a small SBM node-classification dataset.
func prepNC(t *testing.T, seed int64) string {
	t.Helper()
	g := gen.SBM(gen.SBMConfig{
		NumNodes: 300, NumClasses: 4, AvgDegree: 5, FeatureDim: 6,
		Homophily: 0.8, FeatNoise: 1, TrainFrac: 0.2, ValidFrac: 0.1, TestFrac: 0.1, Seed: seed,
	})
	exp, err := dataset.Export(g, t.TempDir(), "tsv")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if _, err := dataset.Ingest(exp.Config(out, "nc", seed, 2)); err != nil {
		t.Fatal(err)
	}
	return out
}

// prepLP ingests a small knowledge-graph link-prediction dataset.
func prepLP(t *testing.T) string {
	t.Helper()
	g := gen.KG(gen.KGConfig{
		NumEntities: 300, NumRelations: 4, NumEdges: 3000,
		ZipfS: 1.2, ValidFrac: 0.05, TestFrac: 0.05, Seed: 11,
	})
	exp, err := dataset.Export(g, t.TempDir(), "tsv")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if _, err := dataset.Ingest(exp.Config(out, "lp", 11, 2)); err != nil {
		t.Fatal(err)
	}
	return out
}

// prepLP1 ingests a single-relation link-prediction dataset — the shape
// every dataset had before relations were threaded through, used to pin
// the legacy request contract.
func prepLP1(t *testing.T) string {
	t.Helper()
	g := gen.KG(gen.KGConfig{
		NumEntities: 200, NumRelations: 1, NumEdges: 2000,
		ZipfS: 1.2, ValidFrac: 0.05, TestFrac: 0.05, Seed: 7,
	})
	exp, err := dataset.Export(g, t.TempDir(), "tsv")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if _, err := dataset.Ingest(exp.Config(out, "lp", 7, 2)); err != nil {
		t.Fatal(err)
	}
	return out
}

// train runs a short dataset session and saves checkpoints after each of
// the requested epoch counts, returning the checkpoint paths.
func train(t *testing.T, dir string, opts []marius.Option, epochs ...int) []string {
	t.Helper()
	sess, err := marius.FromDataset(dir, append([]marius.Option{marius.WithWorkers(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	paths := make([]string, len(epochs))
	done := 0
	for i, target := range epochs {
		if _, err := sess.Run(context.Background(), marius.Epochs(target-done)); err != nil {
			t.Fatal(err)
		}
		done = target
		paths[i] = filepath.Join(t.TempDir(), "ckpt")
		if err := sess.Save(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

var ncOpts = []marius.Option{
	marius.WithModel(marius.GraphSage), marius.WithFanouts(5, 5),
	marius.WithDim(8), marius.WithBatchSize(128),
}

var lpOpts = []marius.Option{
	marius.WithModel(marius.DistMultOnly), marius.WithDim(8),
	marius.WithNegatives(16), marius.WithBatchSize(256),
}

func startServer(t *testing.T, dir, ckptPath string, cfg serve.Config) *serve.Server {
	t.Helper()
	sctx, err := serve.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sctx.Close() })
	snap, err := serve.Load(sctx, ckptPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(sctx, snap, cfg)
	t.Cleanup(srv.Close)
	return srv
}

// relp names a relation in a TopKRequest (the fields are pointers so the
// server can tell "relation 0" from "no relation named").
func relp(r int32) *int32 { return &r }

func eqF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqPredict(a, b *serve.PredictResponse) bool {
	if len(a.Logits) != len(b.Logits) {
		return false
	}
	for i := range a.Logits {
		if a.Classes[i] != b.Classes[i] || !eqF32(a.Logits[i], b.Logits[i]) {
			return false
		}
	}
	return true
}

// TestServePredictMatchesEval is the serve-vs-train differential: logits
// served for an explicit sampling seed must equal, byte for byte, the
// forward pass the training-side evaluation substrate (internal/encode,
// the code path of train/eval.go) produces from the same checkpoint,
// targets and seed — with the server on its defaults (disk feature
// store, multi-worker kernels) and the reference on in-memory features
// with one worker.
func TestServePredictMatchesEval(t *testing.T) {
	dir := prepNC(t, 2)
	ckptPath := train(t, dir, ncOpts, 1)[0]
	srv := startServer(t, dir, ckptPath, serve.Config{})

	const seed = 12345
	nodes := []int32{3, 5, 3, 7, 120, 5} // duplicates exercise per-request dedup
	resp, err := srv.Predict(context.Background(), &serve.PredictRequest{Nodes: nodes, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: rebuild the model exactly as training holds it and run
	// the evaluation forward over the deduplicated targets.
	cp, err := ckpt.Read(nil, ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	ps := nn.NewParamSet()
	rng := rand.New(rand.NewSource(cp.Seed))
	dims := []int{cp.Model.FeatureDim}
	for i := 0; i < cp.Model.Layers-1; i++ {
		dims = append(dims, cp.Model.Dim)
	}
	dims = append(dims, cp.Model.NumClasses)
	enc := gnn.BuildSage(ps, dims, gnn.Mean, rng)
	if err := ps.LoadState(cp.Params); err != nil {
		t.Fatal(err)
	}
	sctx, err := serve.Open(dir, serve.Config{InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sctx.Close()
	fwd := encode.New(encode.Config{
		Encoder: enc, Params: ps, Fanouts: cp.Model.Fanouts, Dirs: graph.Both, Workers: 1,
	}, sctx.Adj, seed)
	uniq := []int32{3, 5, 7, 120}
	out, err := fwd.Encode(sctx.Features, uniq)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int32][]float32{}
	for i, id := range uniq {
		want[id] = out.Value.Row(i)
	}
	for i, id := range nodes {
		if !eqF32(resp.Logits[i], want[id]) {
			t.Fatalf("served logits for node %d differ from eval forward:\n  serve %v\n  eval  %v",
				id, resp.Logits[i], want[id])
		}
	}
}

// TestServeTopKMatchesScoreAll is the link-prediction differential: the
// fused batched scoring launch must reproduce the training-side
// full-ranking ScoreAll (train/eval.go's kernel) bitwise, ids and
// scores.
func TestServeTopKMatchesScoreAll(t *testing.T) {
	dir := prepLP(t)
	ckptPath := train(t, dir, lpOpts, 1)[0]
	srv := startServer(t, dir, ckptPath, serve.Config{})
	snap := srv.Snapshot()

	const k = 10
	for _, q := range []struct{ src, rel int32 }{{12, 3}, {0, 0}, {299, 1}} {
		resp, err := srv.TopK(context.Background(), &serve.TopKRequest{Src: q.src, Rel: relp(q.rel), K: k})
		if err != nil {
			t.Fatal(err)
		}
		scores := decoder.ScoreAll(snap.Decoder, snap.Table.Row(int(q.src)), snap.RelTable.Row(int(q.rel)), snap.Table)
		ids := decoder.TopK(scores, k)
		if len(resp.Nodes) != k {
			t.Fatalf("(%d,%d): got %d results, want %d", q.src, q.rel, len(resp.Nodes), k)
		}
		for i := range ids {
			if resp.Nodes[i] != ids[i] || resp.Scores[i] != scores[ids[i]] {
				t.Fatalf("(%d,%d) rank %d: serve (%d, %v), eval (%d, %v)",
					q.src, q.rel, i, resp.Nodes[i], resp.Scores[i], ids[i], scores[ids[i]])
			}
		}
	}
}

// TestServeTopKGNNDeterministic covers the encoder top-k branch (source
// encoded through the GNN, scored against the load-time precomputed
// entity table): repeated identical requests — alone or co-batched with
// other traffic — return identical results.
func TestServeTopKGNNDeterministic(t *testing.T) {
	dir := prepLP(t)
	opts := []marius.Option{
		marius.WithModel(marius.GraphSage), marius.WithFanouts(5),
		marius.WithDim(8), marius.WithNegatives(16), marius.WithBatchSize(256),
	}
	ckptPath := train(t, dir, opts, 1)[0]
	srv := startServer(t, dir, ckptPath, serve.Config{MaxBatch: 4, MaxWait: 20 * time.Millisecond})

	req := &serve.TopKRequest{Src: 42, Rel: relp(2), K: 5, Seed: 99}
	first, err := srv.TopK(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Fire the same request concurrently with different traffic so some
	// instances co-batch with other sources.
	var wg sync.WaitGroup
	results := make([]*serve.TopKResponse, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if i%2 == 0 {
				results[i], err = srv.TopK(context.Background(), req)
			} else {
				_, err = srv.TopK(context.Background(), &serve.TopKRequest{Src: int32(i), Rel: relp(1), K: 3, Seed: int64(i + 1)})
			}
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < len(results); i += 2 {
		r := results[i]
		for j := range first.Nodes {
			if r.Nodes[j] != first.Nodes[j] || r.Scores[j] != first.Scores[j] {
				t.Fatalf("co-batched topk diverged from solo run at rank %d", j)
			}
		}
	}
}

// TestMicroBatchedEqualsSequential issues the same explicitly-seeded
// requests once sequentially (each alone in its micro-batch) and once
// all concurrently (co-batched), and requires bitwise-equal responses —
// the user-facing face of the merge determinism property. Run under
// -race this is also the serving concurrency test.
func TestMicroBatchedEqualsSequential(t *testing.T) {
	dir := prepNC(t, 2)
	ckptPath := train(t, dir, ncOpts, 1)[0]
	srv := startServer(t, dir, ckptPath, serve.Config{MaxBatch: 8, MaxWait: 20 * time.Millisecond})

	reqs := make([]*serve.PredictRequest, 16)
	rng := rand.New(rand.NewSource(4))
	for i := range reqs {
		nodes := make([]int32, 1+rng.Intn(5))
		for j := range nodes {
			nodes[j] = int32(rng.Intn(300))
		}
		reqs[i] = &serve.PredictRequest{Nodes: nodes, Seed: int64(1000 + i)}
	}

	sequential := make([]*serve.PredictResponse, len(reqs))
	for i, r := range reqs {
		var err error
		if sequential[i], err = srv.Predict(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}

	concurrent := make([]*serve.PredictResponse, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r *serve.PredictRequest) {
			defer wg.Done()
			var err error
			if concurrent[i], err = srv.Predict(context.Background(), r); err != nil {
				t.Error(err)
			}
		}(i, r)
	}
	wg.Wait()
	for i := range reqs {
		if !eqPredict(sequential[i], concurrent[i]) {
			t.Fatalf("request %d: micro-batched response differs from sequential", i)
		}
	}
	// The histogram must show at least one true micro-batch formed.
	statz := srv.Statz()
	if statz.Requests < uint64(2*len(reqs)) {
		t.Fatalf("statz lost requests: %d", statz.Requests)
	}
}

// TestHotReloadSnapshotIsolation reloads a second checkpoint while
// requests are in flight: every response must come entirely from one
// snapshot (old or new, never a mix), and responses settle on the new
// one after the swap.
func TestHotReloadSnapshotIsolation(t *testing.T) {
	dir := prepNC(t, 2)
	paths := train(t, dir, ncOpts, 1, 2)
	srv := startServer(t, dir, paths[0], serve.Config{MaxBatch: 4, MaxWait: time.Millisecond})

	req := &serve.PredictRequest{Nodes: []int32{3, 5, 7, 11, 13}, Seed: 42}
	expA, err := srv.Predict(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var observed []*serve.PredictResponse
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, err := srv.Predict(context.Background(), req)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				observed = append(observed, r)
				mu.Unlock()
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if _, err := srv.Reload(paths[1]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()

	expB, err := srv.Predict(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if eqPredict(expA, expB) {
		t.Fatal("epoch-1 and epoch-2 checkpoints produced identical logits; A/B test is vacuous")
	}
	var nA, nB int
	for i, r := range observed {
		switch {
		case eqPredict(r, expA):
			nA++
		case eqPredict(r, expB):
			nB++
		default:
			t.Fatalf("response %d matches neither snapshot: old/new state mixed within one response", i)
		}
	}
	if nB == 0 {
		t.Fatal("no response came from the reloaded snapshot")
	}
	t.Logf("observed %d responses from old snapshot, %d from new", nA, nB)
}

// TestLoadRejectsMismatch: checkpoint/dataset disagreements must surface
// as typed, field-naming errors at load time — not as shape panics deep
// in the forward pass.
func TestLoadRejectsMismatch(t *testing.T) {
	dir := prepNC(t, 2)
	good, err := ckpt.Read(nil, train(t, dir, ncOpts, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	sctx, err := serve.Open(dir, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sctx.Close()

	cases := []struct {
		field  string
		mutate func(*ckpt.File)
	}{
		{"task", func(f *ckpt.File) { f.Task = "lp" }},
		{"nodes", func(f *ckpt.File) { f.TableRows = 999 }},
		{"classes", func(f *ckpt.File) { f.Model.NumClasses = 7 }},
		{"feature_dim", func(f *ckpt.File) { f.TableCols = 99; f.Model.FeatureDim = 99 }},
		{"version", func(f *ckpt.File) { f.Version = 42 }},
		{"model", func(f *ckpt.File) { f.Model.Kind = "" }},
	}
	for _, tc := range cases {
		bad := *good
		bad.Model.Fanouts = append([]int(nil), good.Model.Fanouts...)
		tc.mutate(&bad)
		path := filepath.Join(t.TempDir(), "bad.ckpt")
		if err := ckpt.Write(nil, path, &bad); err != nil {
			t.Fatal(err)
		}
		_, err := serve.Load(sctx, path, serve.Config{})
		if !errors.Is(err, marius.ErrCheckpointMismatch) {
			t.Fatalf("%s: got %v, want ErrCheckpointMismatch", tc.field, err)
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("%s: error %q does not name the offending field", tc.field, err)
		}
	}
}

// TestLoadWarnsOnProvenanceMismatch: serving a checkpoint against a
// shape-compatible but different dataset is allowed (the operator may
// know better) but must carry the UUID warning.
func TestLoadWarnsOnProvenanceMismatch(t *testing.T) {
	dirA := prepNC(t, 2)
	dirB := prepNC(t, 3) // same shape, different contents -> different UUID
	ckptPath := train(t, dirA, ncOpts, 1)[0]

	sctx, err := serve.Open(dirB, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sctx.Close()
	snap, err := serve.Load(sctx, ckptPath, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Warning == "" {
		t.Fatal("cross-dataset load carried no provenance warning")
	}
	// And the matched pairing stays clean.
	sctxA, err := serve.Open(dirA, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sctxA.Close()
	snapA, err := serve.Load(sctxA, ckptPath, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if snapA.Warning != "" {
		t.Fatalf("matched dataset/checkpoint pairing warned: %s", snapA.Warning)
	}
}

// TestTopKRelationContract pins the request-side relation rules on a
// multi-relation dataset: the relation must be named (by either field),
// the two field names must agree when both appear, and out-of-range
// relations are client errors — all typed ErrBadRequest, never a panic
// or a silently-defaulted relation. Statz must also name the decoder.
func TestTopKRelationContract(t *testing.T) {
	dir := prepLP(t)
	ckptPath := train(t, dir, lpOpts, 1)[0]
	srv := startServer(t, dir, ckptPath, serve.Config{})

	if got := srv.Statz().Decoder; got != decoder.KindDistMult {
		t.Fatalf("statz decoder = %q, want %q", got, decoder.KindDistMult)
	}

	bad := []struct {
		name string
		req  *serve.TopKRequest
	}{
		{"missing relation", &serve.TopKRequest{Src: 1, K: 5}},
		{"conflicting fields", &serve.TopKRequest{Src: 1, Relation: relp(1), Rel: relp(2), K: 5}},
		{"out of range", &serve.TopKRequest{Src: 1, Relation: relp(4), K: 5}},
		{"negative", &serve.TopKRequest{Src: 1, Relation: relp(-1), K: 5}},
	}
	for _, tc := range bad {
		if _, err := srv.TopK(context.Background(), tc.req); !errors.Is(err, serve.ErrBadRequest) {
			t.Fatalf("%s: got %v, want ErrBadRequest", tc.name, err)
		}
	}

	// Both fields naming the same relation is fine, and matches the
	// single-field spelling bit for bit.
	both, err := srv.TopK(context.Background(), &serve.TopKRequest{Src: 1, Relation: relp(2), Rel: relp(2), K: 5})
	if err != nil {
		t.Fatal(err)
	}
	one, err := srv.TopK(context.Background(), &serve.TopKRequest{Src: 1, Relation: relp(2), K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if both.Relation != 2 || one.Relation != 2 {
		t.Fatalf("responses echo relations %d and %d, want 2", both.Relation, one.Relation)
	}
	for i := range one.Nodes {
		if both.Nodes[i] != one.Nodes[i] || both.Scores[i] != one.Scores[i] {
			t.Fatal("agreeing relation/rel pair diverged from the single-field request")
		}
	}
}

// TestTopKLegacyJSONCompat replays request bodies exactly as the
// single-relation-era HTTP clients wrote them — {"src","rel","k"} and
// the relation omitted entirely — against a single-relation dataset,
// and requires both to serve identical results. The old wire format
// must keep working unchanged.
func TestTopKLegacyJSONCompat(t *testing.T) {
	dir := prepLP1(t)
	ckptPath := train(t, dir, lpOpts, 1)[0]
	srv := startServer(t, dir, ckptPath, serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	post := func(body string) *serve.TopKResponse {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/topk", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", body, resp.StatusCode)
		}
		var tr serve.TopKResponse
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
		return &tr
	}

	legacy := post(`{"src":12,"rel":0,"k":5,"seed":7}`)
	absent := post(`{"src":12,"k":5,"seed":7}`)
	modern := post(`{"src":12,"relation":0,"k":5,"seed":7}`)
	for _, tr := range []*serve.TopKResponse{legacy, absent, modern} {
		if tr.Relation != 0 || tr.Filtered {
			t.Fatalf("response header fields: relation %d filtered %v", tr.Relation, tr.Filtered)
		}
		if len(tr.Nodes) != 5 {
			t.Fatalf("got %d results, want 5", len(tr.Nodes))
		}
		for i := range tr.Nodes {
			if tr.Nodes[i] != legacy.Nodes[i] || tr.Scores[i] != legacy.Scores[i] {
				t.Fatal("legacy, relation-absent, and modern spellings disagree")
			}
		}
	}
}

// TestTopKFilteredMatchesReference checks the filtered protocol: with
// "filter": true the served top-k must equal a reference that scores
// every entity and skips the known true tails of (src, relation) from
// the full graph — and filtered requests must stay byte-identical
// whether served solo or co-batched with other traffic.
func TestTopKFilteredMatchesReference(t *testing.T) {
	dir := prepLP(t)
	ckptPath := train(t, dir, lpOpts, 1)[0]
	srv := startServer(t, dir, ckptPath, serve.Config{MaxBatch: 4, MaxWait: 20 * time.Millisecond})
	snap := srv.Snapshot()

	sctx, err := serve.Open(dir, serve.Config{InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sctx.Close()
	knownTails := func(src, rel int32) map[int32]bool {
		known := map[int32]bool{}
		nbrs, rels := sctx.Adj.OutNeighbors(src), sctx.Adj.OutRels(src)
		for i, d := range nbrs {
			if rels[i] == rel {
				known[d] = true
			}
		}
		return known
	}

	// Find a query whose unfiltered top-k actually contains known tails,
	// so filtering demonstrably changes the answer.
	const k = 10
	var qsrc, qrel int32 = -1, -1
	for src := int32(0); src < 300 && qsrc < 0; src++ {
		for rel := int32(0); rel < 4; rel++ {
			known := knownTails(src, rel)
			if len(known) == 0 {
				continue
			}
			scores := decoder.ScoreAll(snap.Decoder, snap.Table.Row(int(src)), snap.RelTable.Row(int(rel)), snap.Table)
			for _, id := range decoder.TopK(scores, k) {
				if known[id] {
					qsrc, qrel = src, rel
					break
				}
			}
			if qsrc >= 0 {
				break
			}
		}
	}
	if qsrc < 0 {
		t.Fatal("no (src, rel) ranks a known tail in its top-10; filtering test would be vacuous")
	}

	solo, err := srv.TopK(context.Background(), &serve.TopKRequest{Src: qsrc, Relation: relp(qrel), K: k, Filter: true})
	if err != nil {
		t.Fatal(err)
	}
	if !solo.Filtered {
		t.Fatal("response does not acknowledge filtering")
	}
	known := knownTails(qsrc, qrel)
	scores := decoder.ScoreAll(snap.Decoder, snap.Table.Row(int(qsrc)), snap.RelTable.Row(int(qrel)), snap.Table)
	want := decoder.TopKSkip(scores, k, func(id int32) bool { return known[id] })
	if len(solo.Nodes) != len(want) {
		t.Fatalf("filtered top-k returned %d results, reference %d", len(solo.Nodes), len(want))
	}
	for i := range want {
		if solo.Nodes[i] != want[i] || solo.Scores[i] != scores[want[i]] {
			t.Fatalf("rank %d: serve (%d, %v), reference (%d, %v)",
				i, solo.Nodes[i], solo.Scores[i], want[i], scores[want[i]])
		}
		if known[solo.Nodes[i]] {
			t.Fatalf("rank %d: filtered response contains known tail %d", i, solo.Nodes[i])
		}
	}

	// Co-batched with unfiltered traffic for other relations, the
	// filtered answer must not move.
	var wg sync.WaitGroup
	results := make([]*serve.TopKResponse, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if i%2 == 0 {
				results[i], err = srv.TopK(context.Background(), &serve.TopKRequest{Src: qsrc, Relation: relp(qrel), K: k, Filter: true})
			} else {
				_, err = srv.TopK(context.Background(), &serve.TopKRequest{Src: int32(i), Relation: relp(int32(i % 4)), K: 3})
			}
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < len(results); i += 2 {
		r := results[i]
		for j := range solo.Nodes {
			if r.Nodes[j] != solo.Nodes[j] || r.Scores[j] != solo.Scores[j] {
				t.Fatalf("co-batched filtered topk diverged from solo run at rank %d", j)
			}
		}
	}
}

// TestServeAllDecoders trains and serves each decoder kind through the
// one interface and pins the served top-k against the naive textbook
// scorer (RefScore) over every entity — exact float32 equality, so the
// fused serving path provably computes each decoder's definition.
func TestServeAllDecoders(t *testing.T) {
	kinds := []struct {
		kind string
		opt  marius.DecoderKind
	}{
		{decoder.KindDistMult, marius.DistMult},
		{decoder.KindComplEx, marius.ComplEx},
		{decoder.KindTransE, marius.TransE},
	}
	for _, tc := range kinds {
		t.Run(tc.kind, func(t *testing.T) {
			dir := prepLP(t)
			opts := append(append([]marius.Option(nil), lpOpts...), marius.WithDecoder(tc.opt))
			ckptPath := train(t, dir, opts, 1)[0]
			srv := startServer(t, dir, ckptPath, serve.Config{})
			snap := srv.Snapshot()

			if got := srv.Statz().Decoder; got != tc.kind {
				t.Fatalf("statz decoder = %q, want %q", got, tc.kind)
			}
			const k = 10
			for _, q := range []struct{ src, rel int32 }{{12, 3}, {0, 0}, {299, 1}} {
				resp, err := srv.TopK(context.Background(), &serve.TopKRequest{Src: q.src, Relation: relp(q.rel), K: k})
				if err != nil {
					t.Fatal(err)
				}
				scores := make([]float32, snap.Table.Rows)
				srcRow, relRow := snap.Table.Row(int(q.src)), snap.RelTable.Row(int(q.rel))
				for v := range scores {
					scores[v] = decoder.RefScore(tc.kind, srcRow, relRow, snap.Table.Row(v))
				}
				ids := decoder.TopK(scores, k)
				for i := range ids {
					if resp.Nodes[i] != ids[i] || resp.Scores[i] != scores[ids[i]] {
						t.Fatalf("(%d,%d) rank %d: serve (%d, %v), reference (%d, %v)",
							q.src, q.rel, i, resp.Nodes[i], resp.Scores[i], ids[i], scores[ids[i]])
					}
				}
			}
		})
	}
}

// TestLoadRejectsDecoderMismatch: a checkpoint recording an unknown
// decoder kind must fail at load time with a typed error naming the
// "decoder" field.
func TestLoadRejectsDecoderMismatch(t *testing.T) {
	dir := prepLP(t)
	good, err := ckpt.Read(nil, train(t, dir, lpOpts, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	sctx, err := serve.Open(dir, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sctx.Close()

	bad := *good
	bad.Model.Fanouts = append([]int(nil), good.Model.Fanouts...)
	bad.Model.Decoder = "rotate"
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := ckpt.Write(nil, path, &bad); err != nil {
		t.Fatal(err)
	}
	_, err = serve.Load(sctx, path, serve.Config{})
	if !errors.Is(err, marius.ErrCheckpointMismatch) {
		t.Fatalf("got %v, want ErrCheckpointMismatch", err)
	}
	if !strings.Contains(err.Error(), "decoder") {
		t.Fatalf("error %q does not name the decoder field", err)
	}
}
