package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestHTTPSurface drives the JSON endpoints end to end: predict, reload,
// healthz, statz, and the error mapping for bad requests.
func TestHTTPSurface(t *testing.T) {
	dir := prepNC(t, 2)
	ckptPath := train(t, dir, ncOpts, 1)[0]
	srv := startServer(t, dir, ckptPath, serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	post := func(path string, body any) *http.Response {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post("/v1/predict", serve.PredictRequest{Nodes: []int32{1, 2, 3}, Seed: 7})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d", resp.StatusCode)
	}
	var pr serve.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(pr.Classes) != 3 || len(pr.Logits) != 3 {
		t.Fatalf("predict: %d classes, %d logit rows, want 3", len(pr.Classes), len(pr.Logits))
	}

	// Wrong task and out-of-range IDs are client errors.
	for _, bad := range []any{
		serve.TopKRequest{Src: 1, Rel: relp(0), K: 5},   // lp endpoint on an nc dataset
		serve.PredictRequest{Nodes: []int32{}},          // empty batch
		serve.PredictRequest{Nodes: []int32{1_000_000}}, // out of range
	} {
		path := "/v1/predict"
		if _, ok := bad.(serve.TopKRequest); ok {
			path = "/v1/topk"
		}
		resp := post(path, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%v: status %d, want 400", bad, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Reload with an empty body re-reads the current checkpoint path.
	resp = post("/reload", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	for _, probe := range []string{"/healthz", "/statz"} {
		resp, err := http.Get(hs.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", probe, resp.StatusCode)
		}
		resp.Body.Close()
	}
	var statz serve.Statz
	resp, err := http.Get(hs.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if statz.Requests == 0 || statz.Batches == 0 {
		t.Fatalf("statz shows no traffic: %+v", statz)
	}
	if statz.Checkpoint != ckptPath {
		t.Fatalf("statz checkpoint %q, want %q", statz.Checkpoint, ckptPath)
	}
}

// GET /metrics serves Prometheus text covering serve, storage, and
// snapshot metric families, and a failed reload flips /healthz to 503
// with a JSON reason until the next successful reload.
func TestHTTPMetricsAndDegradedHealth(t *testing.T) {
	dir := prepNC(t, 2)
	ckptPath := train(t, dir, ncOpts, 1)[0]
	srv := startServer(t, dir, ckptPath, serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	resp := mustPost(t, hs.URL+"/v1/predict", serve.PredictRequest{Nodes: []int32{1, 2}, Seed: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"serve_requests_total",
		"serve_batches_total",
		`serve_latency_milliseconds_bucket{stage="total",le="+Inf"}`,
		"serve_snapshot_epoch",
		"serve_snapshot_loaded_timestamp_seconds",
		"serve_healthy 1",
		`storage_bytes_read_total{store="features"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}

	// A reload pointing at a nonexistent checkpoint fails, keeps the
	// old snapshot serving, and degrades /healthz.
	resp = mustPost(t, hs.URL+"/reload", map[string]string{"checkpoint": dir + "/missing.ckpt"})
	if resp.StatusCode == http.StatusOK {
		t.Fatal("reload of a missing checkpoint should fail")
	}
	resp.Body.Close()

	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after failed reload: status %d, want 503", resp.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "degraded" || health.Reason == "" {
		t.Fatalf("degraded body = %+v", health)
	}

	// Requests still serve on the old snapshot while degraded.
	resp = mustPost(t, hs.URL+"/v1/predict", serve.PredictRequest{Nodes: []int32{1}, Seed: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict while degraded: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// A successful reload restores health.
	resp = mustPost(t, hs.URL+"/reload", map[string]string{"checkpoint": ckptPath})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after recovery: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

func mustPost(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPBodyLimits pins the request-body bounds of the JSON endpoints:
// a body larger than MaxRequestBytes is refused with 413 (also when the
// excess is trailing whitespace), and anything after the one JSON value
// is refused with 400, on every endpoint that reads a body.
func TestHTTPBodyLimits(t *testing.T) {
	dir := prepNC(t, 2)
	ckptPath := train(t, dir, ncOpts, 1)[0]
	srv := startServer(t, dir, ckptPath, serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	postRaw := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	ids := strings.Repeat("1,", serve.MaxRequestBytes/2)
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/v1/predict", `{"nodes":[1,2]}`, http.StatusOK},
		{"/v1/predict", "{\"nodes\":[1,2]} \n\t", http.StatusOK},
		{"/v1/predict", `{"nodes":[1,2]}{"nodes":[3]}`, http.StatusBadRequest},
		{"/v1/predict", `{"nodes":[1,2]} x`, http.StatusBadRequest},
		{"/v1/predict", `{"nodes":[1,2]}]`, http.StatusBadRequest},
		{"/v1/topk", `{"src":1,"k":5} 7`, http.StatusBadRequest},
		{"/reload", `{} {}`, http.StatusBadRequest},
		{"/v1/predict", `{"nodes":[` + ids + `1]}`, http.StatusRequestEntityTooLarge},
		{"/v1/predict", `{"nodes":[1]}` + strings.Repeat(" ", serve.MaxRequestBytes), http.StatusRequestEntityTooLarge},
		{"/v1/topk", `{"src":1,"k":5,"pad":"` + strings.Repeat("x", serve.MaxRequestBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{"/reload", `{"checkpoint":"` + strings.Repeat("x", serve.MaxRequestBytes) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		if got := postRaw(tc.path, tc.body); got != tc.want {
			t.Errorf("%s with a %d-byte body %.40q...: status %d, want %d", tc.path, len(tc.body), tc.body, got, tc.want)
		}
	}
}
