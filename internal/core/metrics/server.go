// The embedded monitoring server: /metrics in Prometheus text
// exposition format, /runs as live JSON progress, and net/http/pprof
// under /debug/pprof — so a long plan execution can be scraped,
// watched and profiled while it runs.

package metrics

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"rheem/internal/core/profile"
)

// Server serves a Hub's telemetry over HTTP.
type Server struct {
	hub *Hub

	mu  sync.Mutex
	srv *http.Server
	ln  net.Listener
}

// NewServer returns an unstarted server for the hub.
func NewServer(hub *Hub) *Server { return &Server{hub: hub} }

// Handler returns the monitoring mux: /metrics, /runs, /debug/pprof/*
// and a small index at /.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "rheem monitoring endpoints:")
		fmt.Fprintln(w, "  /metrics               Prometheus text exposition")
		fmt.Fprintln(w, "  /runs                  live per-run progress (JSON)")
		fmt.Fprintln(w, "  /runs/{id}/profile     flight-recorder profile of a completed run (JSON)")
		fmt.Fprintln(w, "  /runs/{id}/trace.json  Chrome-trace-event export (load in ui.perfetto.dev)")
		fmt.Fprintln(w, "  /calibration           learned cost-correction factors (JSON)")
		fmt.Fprintln(w, "  /debug/pprof           Go runtime profiles")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.hub.Registry().WriteProm(w); err != nil {
			// Headers are gone; all we can do is log via the status if
			// nothing was written yet. WriteProm only fails on w.
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/runs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := s.hub.Runs().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /runs/{id}/profile", func(w http.ResponseWriter, r *http.Request) {
		rec, ok := s.recordFor(w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		b, err := json.MarshalIndent(rec.Profile, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(append(b, '\n'))
	})
	mux.HandleFunc("GET /runs/{id}/trace.json", func(w http.ResponseWriter, r *http.Request) {
		rec, ok := s.recordFor(w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := rec.WritePerfetto(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /calibration", func(w http.ResponseWriter, r *http.Request) {
		cal := s.hub.Calibrator()
		if cal == nil {
			http.Error(w, "calibration not enabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		b, err := json.MarshalIndent(cal, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(append(b, '\n'))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// recordFor resolves the {id} path value against the hub's flight
// recorder, writing the 404/400 itself when it cannot.
func (s *Server) recordFor(w http.ResponseWriter, r *http.Request) (*profile.Record, bool) {
	fr := s.hub.FlightRecorder()
	if fr == nil {
		http.Error(w, "flight recorder not enabled", http.StatusNotFound)
		return nil, false
	}
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad run id", http.StatusBadRequest)
		return nil, false
	}
	rec, ok := fr.Get(id)
	if !ok {
		http.Error(w, "no profile recorded for run "+r.PathValue("id"), http.StatusNotFound)
		return nil, false
	}
	return rec, true
}

// Start binds addr (":0" picks a free port) and serves in the
// background, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		return "", fmt.Errorf("metrics: server already started on %s", s.ln.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("metrics: %w", err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		// ErrServerClosed is the normal shutdown path; anything else
		// has nowhere useful to go — the endpoints just stop serving.
		_ = s.srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Addr returns the bound address, or "" before Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server. Safe to call multiple times and before
// Start.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	s.srv, s.ln = nil, nil
	return err
}
