package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// startServe runs run() in a goroutine on a free port with a fake
// signal channel and returns the bound address plus the channels to
// signal and join it.
func startServe(t *testing.T, extraArgs ...string) (addr string, sig chan os.Signal, done chan error, out *lockedBuffer) {
	t.Helper()
	listening := make(chan string, 1)
	onListen = func(a string) { listening <- a }
	t.Cleanup(func() { onListen = nil })

	sig = make(chan os.Signal, 2)
	done = make(chan error, 1)
	out = &lockedBuffer{}
	args := append([]string{"-addr", "127.0.0.1:0", "-catalog-scale", "500"}, extraArgs...)
	go func() { done <- run(args, out, out, sig) }()

	select {
	case addr = <-listening:
	case err := <-done:
		t.Fatalf("run exited before listening: %v\n%s", err, out.String())
	case <-time.After(30 * time.Second):
		t.Fatal("server never started listening")
	}
	return addr, sig, done, out
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeLifecycle submits a job over HTTP, polls it to success,
// sends SIGTERM, and verifies the server drains and exits cleanly
// without force-cancelling anything.
func TestServeLifecycle(t *testing.T) {
	addr, sig, done, out := startServe(t)
	base := "http://" + addr

	body := `{"tenant":"acme","spec":{"kind":"workload","workload":"wordcount","n":300,"seed":7}}`
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, payload)
	}
	var acked struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(payload, &acked); err != nil {
		t.Fatal(err)
	}

	var st struct {
		State  string `json:"state"`
		Err    string `json:"error"`
		Digest string `json:"digest"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/jobs/" + acked.ID)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.State == "succeeded" || st.State == "failed" || st.State == "cancelled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.State != "succeeded" {
		t.Fatalf("job ended %s (%s)", st.State, st.Err)
	}
	if st.Digest == "" {
		t.Fatal("succeeded job has no digest")
	}

	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("server did not exit after SIGTERM\n%s", out.String())
	}
	log := out.String()
	if !strings.Contains(log, "draining") || !strings.Contains(log, "forced=false") {
		t.Fatalf("drain log missing expected lines:\n%s", log)
	}
}

// TestServeSecondSignalKills piles jobs behind a one-slot scheduler
// pool so the drain takes a while, then verifies a second SIGTERM
// escalates to Kill and the process exits with the escalation logged.
func TestServeSecondSignalKills(t *testing.T) {
	addr, sig, done, out := startServe(t, "-pool", "1", "-max-active", "1",
		"-drain-timeout", "60s", "-deadline", "2m")
	base := "http://" + addr

	body := `{"tenant":"acme","spec":{"kind":"workload","workload":"fanout","n":3000,"branches":6,"seed":3}}`
	for i := 0; i < 4; i++ {
		resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, payload)
		}
	}

	sig <- syscall.SIGTERM
	// Wait for the drain to observably start (healthz flips to 503),
	// then escalate.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			break // listener already gone — drain finished on its own
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	sig <- syscall.SIGTERM

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("server did not exit after second SIGTERM\n%s", out.String())
	}
	if log := out.String(); !strings.Contains(log, "second signal") && !strings.Contains(log, "forced=false") {
		t.Fatalf("neither kill escalation nor clean drain logged:\n%s", log)
	}
}

// TestServeBadFlags ensures flag errors surface as errors, not hangs.
func TestServeBadFlags(t *testing.T) {
	var out lockedBuffer
	if err := run([]string{"-no-such-flag"}, &out, &out, make(chan os.Signal)); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestServeProfileSurvivesRestart boots the server with a state
// directory, runs a job, captures its profile, Perfetto export and the
// learned calibration over HTTP, restarts the process loop on the same
// directory, and verifies all three documents come back byte-identical
// and that calibration.json is the /calibration body on both sides of
// the restart.
func TestServeProfileSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	fetch := func(base, path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		return body
	}
	stop := func(sig chan os.Signal, done chan error) {
		t.Helper()
		sig <- syscall.SIGTERM
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("server did not exit after SIGTERM")
		}
	}

	addr, sig, done, _ := startServe(t, "-state-dir", dir)
	base := "http://" + addr
	body := `{"tenant":"acme","spec":{"kind":"workload","workload":"wordcount","n":300,"seed":7}}`
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, payload)
	}
	var acked struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(payload, &acked); err != nil {
		t.Fatal(err)
	}

	// Poll until terminal AND annotated with the service phases — the
	// annotation lands just after the job turns terminal.
	var runID int64
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st struct {
			State string `json:"state"`
			Err   string `json:"error"`
			RunID int64  `json:"run_id"`
		}
		json.Unmarshal(fetch(base, "/jobs/"+acked.ID), &st)
		if st.State == "succeeded" {
			runID = st.RunID
			var prof struct {
				Phases []struct{} `json:"phases"`
			}
			json.Unmarshal(fetch(base, fmt.Sprintf("/runs/%d/profile", runID)), &prof)
			if len(prof.Phases) >= 3 {
				break
			}
		} else if st.State == "failed" || st.State == "cancelled" {
			t.Fatalf("job ended %s (%s)", st.State, st.Err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished annotated (state %s)", acked.ID, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	profPath := fmt.Sprintf("/runs/%d/profile", runID)
	tracePath := fmt.Sprintf("/runs/%d/trace.json", runID)
	wantProf := fetch(base, profPath)
	wantTrace := fetch(base, tracePath)
	wantCal := fetch(base, "/calibration")
	stop(sig, done)
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("runprofile-%d.json", runID))); err != nil {
		t.Errorf("state directory lacks the run's profile: %v", err)
	}
	// calibration.json is the /calibration body, byte for byte.
	calFile := func() []byte {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, "calibration.json"))
		if err != nil {
			t.Fatalf("state directory lacks calibration.json: %v", err)
		}
		return raw
	}
	if got := calFile(); !bytes.Equal(wantCal, got) {
		t.Errorf("calibration.json is not the /calibration body:\nfile:     %s\nendpoint: %s", got, wantCal)
	}

	addr2, sig2, done2, _ := startServe(t, "-state-dir", dir)
	base2 := "http://" + addr2
	if got := fetch(base2, profPath); !bytes.Equal(wantProf, got) {
		t.Errorf("profile changed across restart:\nbefore: %s\nafter:  %s", wantProf, got)
	}
	if got := fetch(base2, tracePath); !bytes.Equal(wantTrace, got) {
		t.Errorf("Perfetto export changed across restart:\nbefore: %s\nafter:  %s", wantTrace, got)
	}
	gotCal := fetch(base2, "/calibration")
	if !bytes.Equal(wantCal, gotCal) {
		t.Errorf("calibration changed across restart:\nbefore: %s\nafter:  %s", wantCal, gotCal)
	}
	if got := calFile(); !bytes.Equal(gotCal, got) {
		t.Errorf("after the restart, calibration.json is not the /calibration body:\nfile:     %s\nendpoint: %s", got, gotCal)
	}
	stop(sig2, done2)
}
