package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestErrorClassification(t *testing.T) {
	base := errors.New("boom")
	if Fatal(nil) != nil {
		t.Error("wrapping nil must stay nil")
	}
	f := Fatal(base)
	if !IsFatal(f) {
		t.Error("Fatal classification wrong")
	}
	// The wrapper must stay visible through further %w wrapping and keep
	// the cause reachable.
	wrapped := fmt.Errorf("executor: atom failed: %w", f)
	if !IsFatal(wrapped) {
		t.Error("Fatal lost through fmt.Errorf wrapping")
	}
	if !errors.Is(wrapped, base) {
		t.Error("cause lost through Fatal wrapper")
	}
	if IsFatal(base) || IsFatal(fmt.Errorf("wrapped: %w", base)) {
		t.Error("IsFatal false positives")
	}
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	h := NewHealth(HealthConfig{Threshold: 3, Cooldown: time.Hour}, time.Now)
	const id = PlatformID("p")
	for i := 0; i < 2; i++ {
		if h.ReportFailure(id) {
			t.Fatalf("quarantined after %d failures, threshold 3", i+1)
		}
	}
	if h.State(id) != BreakerClosed {
		t.Fatalf("state = %v before threshold", h.State(id))
	}
	if !h.ReportFailure(id) {
		t.Fatal("third consecutive failure did not quarantine")
	}
	if !h.Quarantined(id) || h.State(id) != BreakerOpen {
		t.Fatalf("state = %v after threshold", h.State(id))
	}
	if got := h.QuarantinedPlatforms(); len(got) != 1 || got[0] != id {
		t.Errorf("QuarantinedPlatforms = %v", got)
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	h := NewHealth(HealthConfig{Threshold: 3, Cooldown: time.Hour}, time.Now)
	const id = PlatformID("p")
	h.ReportFailure(id)
	h.ReportFailure(id)
	h.ReportSuccess(id, h.FailureSeq())
	h.ReportFailure(id)
	h.ReportFailure(id)
	if h.Quarantined(id) {
		t.Error("non-consecutive failures quarantined the platform")
	}
}

// An execution that started before its platform's latest failure
// reports a stale success: it neither closes an Open breaker nor resets
// a streak, while a success that started after the failure does both.
func TestStaleSuccessIgnored(t *testing.T) {
	h := NewHealth(HealthConfig{Threshold: 3, Cooldown: time.Hour}, time.Now)
	const id = PlatformID("p")

	// A streak: a success that started before the second failure does
	// not reset it, so the third failure trips the breaker.
	h.ReportFailure(id)
	since := h.FailureSeq()
	h.ReportFailure(id)
	h.ReportSuccess(id, since)
	if h.ReportFailure(id); h.State(id) != BreakerOpen {
		t.Fatalf("state = %v: the stale success reset the streak", h.State(id))
	}

	// An Open breaker: a success that started before the failures that
	// opened it leaves it Open.
	h.ReportSuccess(id, since)
	if h.State(id) != BreakerOpen {
		t.Fatalf("state = %v: a stale success closed the breaker", h.State(id))
	}
	if trips, recoveries := h.Transitions(id); trips != 1 || recoveries != 0 {
		t.Errorf("trips %d, recoveries %d after a stale success, want 1 and 0", trips, recoveries)
	}

	// A failure on another platform does not make this one's success stale.
	fresh := h.FailureSeq()
	h.ReportFailure("other")
	h.ReportSuccess(id, fresh)
	if h.State(id) != BreakerClosed {
		t.Fatalf("state = %v: a fresh success did not close the breaker", h.State(id))
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	now := time.Unix(1000, 0)
	h := NewHealth(HealthConfig{Threshold: 1, Cooldown: time.Minute}, func() time.Time { return now })
	const id = PlatformID("p")

	h.ReportFailure(id)
	if h.State(id) != BreakerOpen {
		t.Fatal("breaker did not open")
	}
	// Before the cooldown the platform stays quarantined.
	now = now.Add(30 * time.Second)
	if h.State(id) != BreakerOpen {
		t.Fatal("breaker relaxed before cooldown")
	}
	// After the cooldown it becomes half-open: re-admitted for a probe.
	now = now.Add(31 * time.Second)
	if h.State(id) != BreakerHalfOpen {
		t.Fatalf("state = %v after cooldown, want half-open", h.State(id))
	}
	if h.Quarantined(id) {
		t.Error("half-open platform still reported quarantined")
	}
	// A failed probe re-opens immediately; a successful one closes.
	h.ReportFailure(id)
	if h.State(id) != BreakerOpen {
		t.Fatal("failed probe did not re-open the breaker")
	}
	now = now.Add(2 * time.Minute)
	if h.State(id) != BreakerHalfOpen {
		t.Fatal("breaker did not relax again after second cooldown")
	}
	h.ReportSuccess(id, h.FailureSeq())
	if h.State(id) != BreakerClosed {
		t.Fatal("successful probe did not close the breaker")
	}
	if got := h.Snapshot(); got[id] != BreakerClosed {
		t.Errorf("snapshot = %v", got)
	}
}

func TestHealthCountsTransitions(t *testing.T) {
	now := time.Unix(0, 0)
	h := NewHealth(HealthConfig{Threshold: 2, Cooldown: time.Minute}, func() time.Time { return now })
	check := func(when string, trips, recoveries int64) {
		t.Helper()
		if gt, gr := h.Transitions("flaky"); gt != trips || gr != recoveries {
			t.Errorf("%s: trips %d, recoveries %d, want %d and %d", when, gt, gr, trips, recoveries)
		}
	}
	check("before any report", 0, 0)

	// Two failures trip the breaker once; a third keeps it open without
	// re-counting, and a success while Closed is no recovery.
	h.ReportSuccess("flaky", h.FailureSeq())
	h.ReportFailure("flaky")
	h.ReportFailure("flaky")
	h.ReportFailure("flaky")
	check("after the trip", 1, 0)

	// Cooldown elapses, the half-open probe succeeds: one recovery.
	now = now.Add(2 * time.Minute)
	if got := h.State("flaky"); got != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v", got)
	}
	check("half-open", 1, 0)
	h.ReportSuccess("flaky", h.FailureSeq())
	check("after the recovery", 1, 1)

	// Trip again, then a failed half-open probe re-trips.
	h.ReportFailure("flaky")
	h.ReportFailure("flaky")
	now = now.Add(2 * time.Minute)
	h.ReportFailure("flaky")
	if got := h.State("flaky"); got != BreakerOpen {
		t.Fatalf("state after a failed probe = %v", got)
	}
	check("after the half-open re-trip", 3, 1)
	if trips, recoveries := h.Transitions("other"); trips != 0 || recoveries != 0 {
		t.Errorf("a platform that never reported reads %d trips, %d recoveries", trips, recoveries)
	}
}

func TestRegistryHealthSharedAndConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Health()
	if h == nil {
		t.Fatal("registry has no health tracker")
	}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			id := PlatformID(fmt.Sprintf("p%d", g%2))
			for i := 0; i < 100; i++ {
				h.ReportFailure(id)
				h.ReportFailure(id)
				h.ReportFailure(id)
				h.ReportSuccess(id, h.FailureSeq())
				h.State(id)
				h.QuarantinedPlatforms()
				h.Transitions(id)
			}
		}(g)
	}
	// A reader of the counters while the reporters run: they only grow,
	// and a recovery never outnumbers the trips before it.
	var lastTrips, lastRecoveries int64
	for g := 0; g < 4; {
		select {
		case <-done:
			g++
		default:
			trips, recoveries := h.Transitions("p0")
			if trips < lastTrips || recoveries < lastRecoveries || recoveries > trips {
				t.Errorf("counters read %d/%d after %d/%d", trips, recoveries, lastTrips, lastRecoveries)
			}
			lastTrips, lastRecoveries = trips, recoveries
		}
	}
	// The first three reports on an id are failures whatever the
	// interleaving, which trips the default threshold of 3; every
	// reporter ends on a success, which closes the breaker again.
	for _, id := range []PlatformID{"p0", "p1"} {
		if trips, recoveries := h.Transitions(id); trips < 1 || recoveries != trips {
			t.Errorf("%s: %d trips, %d recoveries, want at least one of each and as many", id, trips, recoveries)
		}
	}
}

func TestContextErrorsNotFatal(t *testing.T) {
	// RunAtom's fatal classification (a UDF error through a real
	// platform must not be retried) is exercised end-to-end in the
	// executor tests; here we pin the pass-through rule: cancellation
	// errors are never classified fatal.
	if IsFatal(context.Canceled) || IsFatal(context.DeadlineExceeded) {
		t.Error("bare context errors misclassified as fatal")
	}
}
