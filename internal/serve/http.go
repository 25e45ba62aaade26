package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"

	"parallax/internal/buildinfo"
	"parallax/internal/jobspec"
)

// Handler builds the daemon's HTTP API on s:
//
//	POST   /jobs                  submit {tenant, spec} → job view (202)
//	GET    /jobs                  list all jobs
//	GET    /jobs/{id}             one job (incl. final_loss_bits when terminal)
//	GET    /jobs/{id}/steps       NDJSON step stream, follows until terminal
//	POST   /jobs/{id}/checkpoint  {dir} → save between steps (dir local to the working directory)
//	DELETE /jobs/{id}             cancel
//	GET    /metrics               Prometheus text exposition
//	GET    /healthz               liveness
//	GET    /version               build identity
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Tenant string       `json:"tenant"`
			Spec   jobspec.Spec `json:"spec"`
		}
		// Partial specs inherit the standard workload's defaults, so a
		// body like {"spec":{"steps":20}} is a complete job.
		req.Spec = jobspec.Default()
		if !decodeBody(w, r, &req) {
			return
		}
		j, err := s.Submit(req.Tenant, req.Spec)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrRejected) {
				code = http.StatusConflict
			}
			httpError(w, code, err)
			return
		}
		writeJSON(w, http.StatusAccepted, j.View())
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Views())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no such job %s", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, j.View())
	})
	mux.HandleFunc("GET /jobs/{id}/steps", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no such job %s", r.PathValue("id")))
			return
		}
		streamSteps(w, r, j)
	})
	mux.HandleFunc("POST /jobs/{id}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Dir string `json:"dir"`
		}
		if !decodeBody(w, r, &req) {
			return
		}
		// A client names a directory below the daemon's working
		// directory, never one elsewhere on its filesystem.
		if !filepath.IsLocal(req.Dir) {
			httpError(w, http.StatusBadRequest, errors.New("checkpoint dir must be a relative path below the daemon's working directory"))
			return
		}
		step, err := s.Checkpoint(r.Context(), r.PathValue("id"), req.Dir)
		if err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"dir": req.Dir, "step": step})
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Cancel(r.PathValue("id")); err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"cancelled": r.PathValue("id")})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, s.MetricsText())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	})
	mux.HandleFunc("GET /version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, buildinfo.Get())
	})
	return mux
}

// streamSteps writes the job's step history as NDJSON and follows new
// steps until the job is terminal or the client disconnects. One JSON
// object per line, flushed per batch, so `curl -N` tails a live job.
func streamSteps(w http.ResponseWriter, r *http.Request, j *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	cursor := 0
	for {
		events, terminal := j.waitSteps(r.Context(), cursor)
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		cursor += len(events)
		if flusher != nil {
			flusher.Flush()
		}
		if terminal || r.Context().Err() != nil {
			return
		}
	}
}

// maxBodyBytes bounds a request body: a job request is a few hundred
// bytes, and its tenant becomes a metrics label.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, answering 413 for a body
// over maxBodyBytes and 400 for a malformed one.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", tooLarge.Limit))
	case err != nil:
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	}
	return err == nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]any{"error": err.Error()})
}
