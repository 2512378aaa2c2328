// The HTTP/JSON surface: submit a plan, poll status, fetch results,
// cancel — plus the telemetry endpoints (/metrics, /runs, pprof)
// delegated to the hub's monitoring server so one port serves both
// the job API and observability.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
//
// A 202 means accepted; its body is the job's status when the reply was
// written. POST /jobs holds that reply until the job is terminal, for at
// most submitWait, so a small job's result digest comes back in the
// first reply. ?wait=<Go duration> on POST /jobs and GET /jobs/{id}
// chooses the hold: 0 (GET's default) answers at once, a wait past
// Config.MaxDeadline is cut to it, and a negative or unparseable one is
// a 400 before anything is admitted. The job's terminal state — drain
// and kill included — the bound or the client going away ends a hold.
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
	json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// maxRequestBody bounds what POST /jobs reads: a job is a query or a few
// numbers, and the decoder must not buffer whatever a client sends.
const maxRequestBody = 1 << 20

// submitWait is how long POST /jobs holds its reply for the job to turn
// terminal when the request names no wait: 50× a small job's median
// queue-and-run time, so that job is answered in one round trip, and
// 1 % of the 1 s Retry-After a shed client is asked for, so a client
// submitting long jobs back to back loses at most 10 ms a submit.
const submitWait = 10 * time.Millisecond

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	wait, err := s.waitParam(r, submitWait)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	var req Request
	body := http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err = dec.Decode(&req)
	if err == nil {
		// Read the body to its end: only then does the server watch the
		// connection, and cancel r.Context() when the client goes away
		// during the hold.
		_, err = io.Copy(io.Discard, body)
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, apiError{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	j, st, err := s.admit(req)
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
	if wait > 0 {
		hold(r.Context(), j, wait)
		st = s.statusOf(j)
	}
	w.Header().Set("Location", "/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

// waitParam reads the request's wait parameter: def when it names none,
// cut to Config.MaxDeadline, an error when negative or no Go duration.
func (s *Service) waitParam(r *http.Request, def time.Duration) (time.Duration, error) {
	if r.URL.RawQuery == "" {
		return def, nil
	}
	q := r.URL.Query()
	if !q.Has("wait") {
		return def, nil
	}
	d, err := time.ParseDuration(q.Get("wait"))
	if err != nil {
		return 0, fmt.Errorf("bad wait: %v", err)
	}
	if d < 0 {
		return 0, fmt.Errorf("bad wait %s: negative", d)
	}
	return min(d, s.cfg.MaxDeadline), nil
}

// hold blocks until j is terminal, d has passed or ctx is done, whichever
// comes first. It waits on the job itself, so a job evicted from the
// history meanwhile still reports its own terminal state, and on one
// timer rather than a derived context: a hold must cost less than the
// poll it saves.
func hold(ctx context.Context, j *Job, d time.Duration) {
	select {
	case <-j.done:
		return
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-j.done:
	case <-t.C:
	case <-ctx.Done():
	}
}

func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: s.Jobs()})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	wait, err := s.waitParam(r, 0)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: ErrNotFound.Error()})
		return
	}
	if wait > 0 {
		hold(r.Context(), j, wait)
	}
	writeJSON(w, http.StatusOK, s.statusOf(j))
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
