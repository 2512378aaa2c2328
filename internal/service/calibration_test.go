package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rheem/internal/core/cost"
)

// TestCalibrationSharedAcrossTenants pins the multi-tenant learning
// loop: with Config.Calibration on, every tenant's finished jobs fold
// into ONE calibrator — tenant B's plans benefit from tenant A's
// traffic. The test runs jobs from two tenants and checks the shared
// calibrator saw all of them and learned applied factors.
func TestCalibrationSharedAcrossTenants(t *testing.T) {
	s := newTestService(t, Config{Calibration: true})
	cal := s.cal
	if cal == nil {
		t.Fatal("Config.Calibration should install a calibrator")
	}
	if got := s.hub.Calibrator(); got != cal {
		t.Fatal("service calibrator not registered on the telemetry hub")
	}

	const perTenant = 4
	for i := 0; i < perTenant; i++ {
		for _, tenant := range []string{"acme", "globex"} {
			st, err := s.Submit(wordcountReq(tenant, 300, uint64(10+i)))
			if err != nil {
				t.Fatal(err)
			}
			if final := waitTerminal(t, s, st.ID); final.State != StateSucceeded {
				t.Fatalf("%s job %s: %s (%s)", tenant, st.ID, final.State, final.Err)
			}
		}
	}

	// Execute folds before the job turns terminal, so by now every
	// job's residuals are in.
	if folds := cal.Folds(); folds < 2*perTenant {
		t.Fatalf("shared calibrator folded %d times, want >= %d", folds, 2*perTenant)
	}
	snap := cal.Snapshot()
	if len(snap.Cost) == 0 {
		t.Fatal("no cost cells learned from live traffic")
	}
	applied := 0
	for _, c := range snap.Cost {
		if c.Kind == "" || c.Platform == "" {
			t.Errorf("cost cell missing identity: %+v", c)
		}
		if !(c.Factor > 0) {
			t.Errorf("cell %s/%s has unsafe factor %v", c.Kind, c.Platform, c.Factor)
		}
		if c.Applied {
			applied++
		}
	}
	if applied == 0 {
		t.Errorf("no cell past the min-sample guard after %d folds: %+v", cal.Folds(), snap.Cost)
	}

	// Default config leaves calibration off: no calibrator anywhere.
	off := newTestService(t, Config{})
	if off.cal != nil || off.hub.Calibrator() != nil {
		t.Fatal("calibration must be opt-in")
	}
}

// TestCalibrationPersistenceAcrossRestart: state learned by one
// service process is rehydrated by a fresh process pointed at the same
// state directory — warm plans from the first request after a restart.
// The file is the calibrator's JSON document, indented as GET
// /calibration serves it.
func TestCalibrationPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	s1 := newTestService(t, Config{Calibration: true, StateDir: dir})
	for i := 0; i < 4; i++ {
		st, err := s1.Submit(wordcountReq("acme", 300, uint64(20+i)))
		if err != nil {
			t.Fatal(err)
		}
		if final := waitTerminal(t, s1, st.ID); final.State != StateSucceeded {
			t.Fatalf("job %s: %s (%s)", st.ID, final.State, final.Err)
		}
	}
	wantFolds := s1.cal.Folds()
	if wantFolds < 4 {
		t.Fatalf("folded %d times, want >= 4", wantFolds)
	}

	// saveCalibration lands after the job turns terminal (same
	// goroutine as annotateRun) — poll the file until the persisted
	// state caught up with the in-memory fold count.
	deadline := time.Now().Add(10 * time.Second)
	for {
		probe := cost.NewCalibrator(cost.CalibratorConfig{})
		if err := loadCalibration(s1.state, probe); err == nil && probe.Folds() >= wantFolds {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("persisted calibration never reached %d folds", wantFolds)
		}
		time.Sleep(2 * time.Millisecond)
	}
	wantState := calibrationDoc(t, s1.cal)
	s1.Kill()
	s1.Close()
	if raw, err := os.ReadFile(filepath.Join(dir, "calibration.json")); err != nil || string(raw) != string(wantState) {
		t.Fatalf("calibration.json is not the calibrator's document (%v):\n%s\nwant\n%s", err, raw, wantState)
	}

	s2 := newTestService(t, Config{Calibration: true, StateDir: dir})
	if got := s2.cal.Folds(); got != wantFolds {
		t.Fatalf("restarted service rehydrated %d folds, want %d", got, wantFolds)
	}
	if got := calibrationDoc(t, s2.cal); string(got) != string(wantState) {
		t.Fatalf("rehydrated state differs from persisted state:\nwant %s\ngot  %s", wantState, got)
	}

	// The warm service keeps learning on top of the rehydrated state.
	st, err := s2.Submit(wordcountReq("acme", 300, uint64(99)))
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, s2, st.ID); final.State != StateSucceeded {
		t.Fatalf("post-restart job: %s (%s)", final.State, final.Err)
	}
	if got := s2.cal.Folds(); got <= wantFolds {
		t.Fatalf("warm service stopped learning: folds %d, want > %d", got, wantFolds)
	}
}

// calibrationDoc is the calibrator's document as the service writes it.
func calibrationDoc(t *testing.T, cal *cost.Calibrator) []byte {
	t.Helper()
	b, err := json.MarshalIndent(cal, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// A calibration.json that does not decode fails New, and the error
// names the file: starting cold over it would discard what was learned.
func TestCorruptCalibrationStateFailsNew(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "calibration.json"), []byte(`{"schema":1,"decay":`), 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{CatalogScale: 500, Calibration: true, StateDir: dir})
	if err == nil {
		s.Kill()
		s.Close()
		t.Fatal("New accepted a garbage calibration.json")
	}
	if !strings.Contains(err.Error(), "calibration.json") {
		t.Errorf("error does not name the file: %v", err)
	}
}

// A state directory holding only the binary calibration.bin an older
// build wrote starts cold: the file is not read, and New does not fail.
func TestOldCalibrationStateIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "calibration.bin"), []byte("RHCAL\x01not a document"), 0o600); err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{Calibration: true, StateDir: dir})
	if folds, cells := s.cal.Folds(), len(s.cal.Snapshot().Cost); folds != 0 || cells != 0 {
		t.Fatalf("cold start expected, got %d folds and %d cost cells", folds, cells)
	}
}
