package service

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"rheem/internal/core/profile"
	"rheem/internal/core/trace"
)

// waitAnnotated polls until the run's profile carries the service-layer
// phase spans — annotateRun lands after the job turns terminal, so the
// terminal status alone doesn't imply the phases are recorded yet.
func waitAnnotated(t *testing.T, rec *profile.Recorder, runID int64) *profile.Record {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if r, ok := rec.Get(runID); ok && len(r.Profile.Phases) >= 3 {
			return r
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %d never got its service-layer phases", runID)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFlightRecorderAnnotatesJobs pins the service half of the flight
// recorder: a finished job's status carries its run ID, and the
// recorded profile is annotated with the admission/queue/dispatch
// phases tagged by job and tenant.
func TestFlightRecorderAnnotatesJobs(t *testing.T) {
	s := newTestService(t, Config{})
	st, err := s.Submit(Request{
		Tenant: "acme", Name: "wc",
		Spec: Spec{Kind: KindWorkload, Workload: WorkloadWordcount, N: 300, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("job %s: %s (%s)", st.ID, final.State, final.Err)
	}
	if final.RunID == 0 {
		t.Fatal("terminal status has no run ID")
	}
	rec := s.rec
	if rec == nil {
		t.Fatal("default config should enable the flight recorder")
	}
	r := waitAnnotated(t, rec, final.RunID)
	phases := map[string]bool{}
	for _, ph := range r.Profile.Phases {
		phases[ph.Kind] = true
		if ph.Job != st.ID || ph.Tenant != "acme" {
			t.Errorf("phase %s tagged %q/%q, want %q/acme", ph.Kind, ph.Job, ph.Tenant, st.ID)
		}
		if ph.WallNS < 0 {
			t.Errorf("phase %s has negative wall %d", ph.Kind, ph.WallNS)
		}
	}
	for _, k := range []string{trace.KindAdmission, trace.KindQueue, trace.KindDispatch} {
		if !phases[k] {
			t.Errorf("profile missing %s phase: %+v", k, r.Profile.Phases)
		}
	}
	if r.Profile.CriticalPathNS <= 0 {
		t.Errorf("profile has no critical path: %+v", r.Profile)
	}

	// ProfileHistory < 0 disables the recorder without breaking jobs.
	off := newTestService(t, Config{ProfileHistory: -1})
	if off.rec != nil {
		t.Fatal("negative ProfileHistory should disable the recorder")
	}
	st2, err := off.Submit(Request{
		Tenant: "acme", Name: "wc",
		Spec: Spec{Kind: KindWorkload, Workload: WorkloadWordcount, N: 100, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, off, st2.ID); final.State != StateSucceeded {
		t.Fatalf("recorder-off job: %s (%s)", final.State, final.Err)
	}
}

// TestProfilePersistenceAcrossRestart is the acceptance criterion: a
// profile recorded by one service process is reproduced byte-for-byte —
// profile JSON and Perfetto export alike — by a fresh process pointed at
// the same state directory, and new runs never reuse persisted run IDs.
func TestProfilePersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	submit := func(s *Service) JobStatus {
		st, err := s.Submit(Request{
			Tenant: "acme", Name: "wc",
			Spec: Spec{Kind: KindWorkload, Workload: WorkloadWordcount, N: 300, Seed: 7},
		})
		if err != nil {
			t.Fatal(err)
		}
		final := waitTerminal(t, s, st.ID)
		if final.State != StateSucceeded {
			t.Fatalf("job %s: %s (%s)", st.ID, final.State, final.Err)
		}
		return final
	}
	render := func(r *profile.Record) (profJSON, perfetto []byte) {
		var err error
		profJSON, err = json.MarshalIndent(r.Profile, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.WritePerfetto(&buf); err != nil {
			t.Fatal(err)
		}
		return profJSON, buf.Bytes()
	}

	s1, err := New(Config{CatalogScale: 500, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	final := submit(s1)
	r1 := waitAnnotated(t, s1.rec, final.RunID)
	wantProf, wantTrace := render(r1)
	if _, err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// "Restart": a fresh service over the same directory.
	s2, err := New(Config{CatalogScale: 500, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s2.Kill(); s2.Close() }()
	r2, ok := s2.rec.Get(final.RunID)
	if !ok {
		t.Fatalf("run %d not rehydrated after restart", final.RunID)
	}
	gotProf, gotTrace := render(r2)
	if !bytes.Equal(wantProf, gotProf) {
		t.Errorf("profile JSON changed across restart:\nbefore: %s\nafter:  %s", wantProf, gotProf)
	}
	if !bytes.Equal(wantTrace, gotTrace) {
		t.Errorf("Perfetto export changed across restart:\nbefore: %s\nafter:  %s", wantTrace, gotTrace)
	}
	if len(r2.Profile.Phases) < 3 {
		t.Errorf("rehydrated profile lost its phases: %+v", r2.Profile.Phases)
	}

	// The rehydrated history seeds the run tracker: the next run must
	// get a fresh ID, not overwrite the persisted profile.
	final2 := submit(s2)
	if final2.RunID <= final.RunID {
		t.Errorf("post-restart run ID %d not past persisted %d", final2.RunID, final.RunID)
	}
}
