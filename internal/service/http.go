// The HTTP/JSON surface: submit a plan, poll status, fetch results,
// cancel — plus the telemetry endpoints (/metrics, /runs, pprof)
// delegated to the hub's monitoring server so one port serves both
// the job API and observability.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"time"

	"rheem/internal/core/metrics"
)

// Handler mounts the job API:
//
//	POST   /jobs            submit (202, or 429 + Retry-After, or 503 draining, or 413 over 1 MiB)
//	GET    /jobs            list every remembered job
//	GET    /jobs/{id}       one job's status
//	GET    /jobs/{id}/result a succeeded job's records (JSON rows + digest)
//	DELETE /jobs/{id}       cancel
//	GET    /tenants         per-tenant quotas, counters, health
//	GET    /healthz         liveness (503 while draining)
//	GET    /metrics /runs /debug/pprof/...  telemetry (hub server)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /tenants", s.handleTenants)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("/", metrics.NewServer(s.hub).Handler())
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// maxRequestBody bounds what POST /jobs reads: a job is a query or a few
// numbers, and the decoder must not buffer whatever a client sends.
const maxRequestBody = 1 << 20

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, apiError{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		var shed *ShedError
		switch {
		case errors.As(err, &shed):
			// Load shedding: tell the client when to come back.
			secs := int(math.Ceil(shed.RetryAfter.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
			writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
		case errors.Is(err, ErrDraining):
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		default:
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		}
		return
	}
	w.Header().Set("Location", "/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: s.Jobs()})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	recs, digest, err := s.Result(id)
	if err != nil {
		code := http.StatusNotFound
		if !errors.Is(err, ErrNotFound) {
			// The job exists but has no result (yet, or ever).
			code = http.StatusConflict
		}
		writeJSON(w, code, apiError{Error: err.Error()})
		return
	}
	buf := resultBufs.Get().(*[]byte)
	*buf = appendResult((*buf)[:0], id, recs, digest)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*buf) // a write fails when the client has gone: nobody to tell
	if cap(*buf) <= maxPooledResult {
		resultBufs.Put(buf)
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Tenants []TenantStatus `json:"tenants"`
	}{Tenants: s.Tenants()})
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	queued, active := s.queued, s.active
	s.mu.Unlock()
	code := http.StatusOK
	if draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, struct {
		Status string `json:"status"`
		Queued int    `json:"queued"`
		Active int    `json:"active"`
	}{Status: map[bool]string{false: "ok", true: "draining"}[draining], Queued: queued, Active: active})
}

// Serve starts an HTTP server for the handler on addr (":0" picks a
// free port) and returns it with its bound address; shut it down with
// the returned server's Shutdown/Close.
func (s *Service) Serve(addr string) (*http.Server, string, error) {
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
