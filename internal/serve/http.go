package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro/internal/ckpt"
)

// Handler returns the server's HTTP surface:
//
//	POST /v1/predict  {"nodes":[...], "seed":0}               -> PredictResponse
//	POST /v1/topk     {"src":0,"relation":0,"k":10}           -> TopKResponse
//	POST /reload      {"checkpoint":"path"} (optional)         -> reload summary
//	GET  /healthz                                             -> 200 "ok", or 503 + JSON reason when degraded
//	GET  /statz                                               -> Statz
//	GET  /metrics                                             -> Prometheus text exposition
//
// /v1/topk accepts the relation as "relation" (current) or "rel" (the
// original single-relation-era field name); on single-relation datasets
// the relation may be omitted entirely, so v1-era request bodies keep
// round-tripping unchanged. "filter": true removes known true tails (the
// filtered protocol). See TopKRequest for the full contract.
//
// Request bodies are read through http.MaxBytesReader: a body over
// MaxRequestBytes maps to 413. ErrBadRequest maps to 400 — malformed
// JSON, data after the JSON value, wrong task, out-of-range
// node or relation IDs, a missing relation on a multi-relation dataset,
// or conflicting "relation"/"rel" values. ErrCheckpointMismatch (via
// /reload) maps to 409, ErrClosed to 503, ErrOverloaded (request shed at
// a full queue) to 503 with a Retry-After header, an expired per-request
// deadline (Config.RequestTimeout) to 504, anything else to 500.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		var req PredictRequest
		if err := decodeBody(w, r, &req); err != nil {
			httpError(w, err)
			return
		}
		resp, err := s.Predict(r.Context(), &req)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST /v1/topk", func(w http.ResponseWriter, r *http.Request) {
		var req TopKRequest
		if err := decodeBody(w, r, &req); err != nil {
			httpError(w, err)
			return
		}
		resp, err := s.TopK(r.Context(), &req)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST /reload", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Checkpoint string `json:"checkpoint"`
		}
		if r.ContentLength != 0 {
			if err := decodeBody(w, r, &req); err != nil {
				httpError(w, err)
				return
			}
		}
		path := req.Checkpoint
		if path == "" {
			path = s.Snapshot().Path
		}
		snap, err := s.Reload(path)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, map[string]any{
			"checkpoint": snap.Path,
			"loaded_at":  snap.LoadedAt,
			"epoch":      snap.File.Epoch,
			"warning":    snap.Warning,
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if ok, reason := s.Health(); !ok {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"status": "degraded", "reason": reason})
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /statz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Statz())
	})
	mux.Handle("GET /metrics", s.Metrics().Handler())
	return mux
}

// MaxRequestBytes bounds a JSON request body. The largest legitimate
// body, a predict batch, stays far below it (about 12 bytes per node ID).
const MaxRequestBytes = 1 << 20

// decodeBody decodes exactly one JSON value from r's body into v, reading
// at most MaxRequestBytes. Malformed JSON and any data after the value are
// ErrBadRequest; an oversized body keeps its *http.MaxBytesError, which
// httpError maps to 413.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	err := dec.Decode(v)
	if err == nil {
		// Only the end of the body may follow the value.
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		if err == nil {
			err = errors.New("serve: data after the JSON request body")
		}
	}
	return errors.Join(ErrBadRequest, err)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, ckpt.ErrMismatch):
		code = http.StatusConflict
	case errors.Is(err, ErrOverloaded):
		// Shed, not failed: the client should back off briefly and retry.
		w.Header().Set("Retry-After", "1")
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
