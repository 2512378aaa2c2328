package metrics

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"rheem/internal/core/profile"
	"rheem/internal/core/trace"
)

func TestServerEndpoints(t *testing.T) {
	h := NewHub()
	run := driveRun(t, h)
	run.End(nil)

	srv := NewServer(h)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() != addr {
		t.Fatalf("Addr() = %q, want %q", srv.Addr(), addr)
	}

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metricsBody, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	families, err := ParseProm(strings.NewReader(metricsBody))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, metricsBody)
	}
	names := map[string]bool{}
	for _, f := range families {
		names[f.Name] = true
	}
	for _, want := range []string{
		"rheem_atoms_total", "rheem_atom_latency_seconds",
		"rheem_runs_total", "rheem_card_misestimate_ratio",
	} {
		if !names[want] {
			t.Errorf("/metrics missing family %s", want)
		}
	}

	runsBody, ct := get("/runs")
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/runs content type = %q", ct)
	}
	var payload struct {
		Runs []RunStatus `json:"runs"`
	}
	if err := json.Unmarshal([]byte(runsBody), &payload); err != nil {
		t.Fatalf("/runs is not JSON: %v\n%s", err, runsBody)
	}
	if len(payload.Runs) != 1 || payload.Runs[0].Name != "unit-plan" {
		t.Fatalf("/runs payload = %+v", payload)
	}

	if idx, _ := get("/"); !strings.Contains(idx, "/metrics") {
		t.Errorf("index page missing endpoint list:\n%s", idx)
	}
	if prof, _ := get("/debug/pprof/cmdline"); prof == "" {
		t.Error("pprof cmdline empty")
	}

	resp, err := http.Get("http://" + addr + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", resp.StatusCode)
	}

	if _, err := srv.Start("127.0.0.1:0"); err == nil {
		t.Error("second Start did not fail")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestProfileEndpointBuildsOnRead pins the flight recorder's lazy
// profile: recorded without a store, annotated by the job service, and
// read for the first time over /runs/{id}/profile, a run serves the same
// bytes as the profile built eagerly from the same spans — and the same
// bytes again on the next read.
func TestProfileEndpointBuildsOnRead(t *testing.T) {
	h := NewHub()
	rec := profile.NewRecorder(4, nil)
	h.SetFlightRecorder(rec)
	started := time.Now()
	at := func(ms int) time.Time { return started.Add(time.Duration(ms) * time.Millisecond) }
	span := func(id int, name string, from, to int) *trace.Span {
		return &trace.Span{ID: id, Kind: trace.KindAtom, AtomID: id - 1, Name: name, Platform: "java",
			Iteration: -1, StartedAt: at(from), EndedAt: at(to), Wall: at(to).Sub(at(from))}
	}
	spans := []*trace.Span{span(1, "atom#0@java{src → Map#1}", 0, 3), span(2, "atom#1@java{Sink#2}", 3, 5)}
	rec.Record(7, "lazy", at(0), at(6), nil, &trace.Trace{Spans: spans})
	dispatch := &trace.Span{Kind: trace.KindDispatch, Name: "dispatch", Plan: "t/lazy#j-1",
		Iteration: -1, Job: "j-1", Tenant: "t", StartedAt: at(0), EndedAt: at(6), Wall: at(6).Sub(at(0))}
	if err := rec.Annotate(7, dispatch); err != nil {
		t.Fatal(err)
	}
	eager, err := json.MarshalIndent(profile.Build(7, "lazy", at(0), at(6), "", append(spans, dispatch)), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want := string(append(eager, '\n'))

	srv := NewServer(h)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for read := 1; read <= 2; read++ {
		resp, err := http.Get("http://" + addr + "/runs/7/profile")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d: status %d\n%s", read, resp.StatusCode, body)
		}
		if string(body) != want {
			t.Errorf("read %d serves\n%s\nwant the eagerly built\n%s", read, body, want)
		}
	}
}
