package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rheem/internal/core/metrics"
	"rheem/internal/core/trace"
)

func TestTraceDumpEmitsValidJSONLines(t *testing.T) {
	var buf bytes.Buffer
	if err := traceDump(&buf); err != nil {
		t.Fatal(err)
	}
	var spans, audits, flagged int
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("invalid JSON line %q: %v", sc.Text(), err)
		}
		if v, _ := line["schema"].(float64); v != trace.JSONSchema {
			t.Errorf("line schema = %v, want %d: %v", line["schema"], trace.JSONSchema, line)
		}
		switch line["type"] {
		case "span":
			spans++
			for _, key := range []string{"id", "platform", "wall_ns", "started_at", "ended_at", "est_cost_ns"} {
				if _, ok := line[key]; !ok {
					t.Errorf("span line missing %q: %v", key, line)
				}
			}
		case "audit":
			audits++
			if f, _ := line["flagged"].(bool); f {
				flagged++
			}
		default:
			t.Errorf("unknown line type %v", line["type"])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if spans == 0 {
		t.Error("dump contains no spans")
	}
	if audits == 0 {
		t.Error("dump contains no audit records")
	}
	if flagged == 0 {
		t.Error("the demo job's deliberately wrong selectivity was not flagged")
	}
}

// TestProfileDumpEmitsProfileAndPerfetto pins the -profile mode: the
// demo job's analyzed profile comes out as JSON with a critical path
// obeying the wall-clock invariant, and -perfetto writes a parseable
// Chrome-trace-event document.
func TestProfileDumpEmitsProfileAndPerfetto(t *testing.T) {
	perfettoFile := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	if err := profileDump(&buf, perfettoFile); err != nil {
		t.Fatal(err)
	}
	var prof struct {
		Schema         int   `json:"schema"`
		RunID          int64 `json:"run_id"`
		WallNS         int64 `json:"wall_ns"`
		CriticalPathNS int64 `json:"critical_path_ns"`
		CriticalPath   []struct {
			Name string `json:"name"`
		} `json:"critical_path"`
		TopAtoms []struct{} `json:"top_atoms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &prof); err != nil {
		t.Fatalf("profile output not JSON: %v\n%s", err, buf.String())
	}
	if prof.CriticalPathNS <= 0 || prof.CriticalPathNS > prof.WallNS {
		t.Errorf("critical path %dns vs wall %dns violates the invariant", prof.CriticalPathNS, prof.WallNS)
	}
	if len(prof.CriticalPath) == 0 || len(prof.TopAtoms) == 0 {
		t.Errorf("profile missing path/top atoms:\n%s", buf.String())
	}

	raw, err := os.ReadFile(perfettoFile)
	if err != nil {
		t.Fatal(err)
	}
	var pf struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &pf); err != nil {
		t.Fatalf("perfetto output not JSON: %v\n%s", err, raw)
	}
	if pf.DisplayTimeUnit != "ms" || len(pf.TraceEvents) == 0 {
		t.Errorf("perfetto document malformed: unit %q, %d events", pf.DisplayTimeUnit, len(pf.TraceEvents))
	}
}

// TestScrapeValidates exercises the -scrape mode CI leans on: a real
// monitoring server's endpoints must pass, and a lying endpoint — 200
// with garbage — must fail rather than slip through.
func TestScrapeValidates(t *testing.T) {
	hub := metrics.NewHub()
	hub.Registry().CounterVec("rheem_atoms_total", "Atoms.", "platform").With("java").Add(3)
	srv := metrics.NewServer(hub)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var out bytes.Buffer
	if err := scrape("http://"+addr+"/metrics", &out); err != nil {
		t.Errorf("scrape /metrics: %v", err)
	}
	if !strings.Contains(out.String(), "rheem_atoms_total") {
		t.Errorf("scrape did not echo the body: %q", out.String())
	}
	if err := scrape("http://"+addr+"/runs", io.Discard); err != nil {
		t.Errorf("scrape /runs: %v", err)
	}
	if err := scrape("http://"+addr+"/nope", io.Discard); err == nil {
		t.Error("scrape of a 404 endpoint did not fail")
	}

	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		io.WriteString(w, "this is not { prometheus\n")
	}))
	defer liar.Close()
	if err := scrape(liar.URL, io.Discard); err == nil {
		t.Error("scrape of unparseable exposition did not fail")
	}
	liarJSON := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"runs":`)
	}))
	defer liarJSON.Close()
	if err := scrape(liarJSON.URL, io.Discard); err == nil {
		t.Error("scrape of truncated JSON did not fail")
	}
}
