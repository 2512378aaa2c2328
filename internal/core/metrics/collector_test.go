package metrics

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rheem/internal/core/engine"
	"rheem/internal/core/trace"
)

// driveRun pushes a small synthetic span stream through a hub-wired
// tracer: two top-level atoms (one retried then successful, one
// failed), a loop-body atom, a failover, a replan and an audit batch.
func driveRun(t *testing.T, h *Hub) *Run {
	t.Helper()
	tr, run := h.NewRunTracer("unit-plan")
	base := time.Unix(1700000000, 0)
	clock := base
	tr.SetClock(func() time.Time { clock = clock.Add(10 * time.Millisecond); return clock })

	tr.Start("unit-plan", 2)

	ok := &trace.Span{Kind: trace.KindAtom, Platform: "java", Iteration: -1}
	tr.Begin(ok, time.Time{})
	tr.Retry(ok, 1, engine.Metrics{}, errors.New("transient"))
	ok.ConvBytes = 4096
	tr.End(ok, engine.Metrics{InRecords: 100, OutRecords: 40}, nil)

	body := &trace.Span{Kind: trace.KindAtom, Platform: "sparksim", Iteration: 3}
	tr.Begin(body, time.Time{})
	tr.End(body, engine.Metrics{OutRecords: 7}, nil)

	bad := &trace.Span{Kind: trace.KindAtom, Platform: "sparksim", Iteration: -1}
	tr.Begin(bad, time.Time{})
	tr.End(bad, engine.Metrics{}, errors.New("boom"))

	tr.Failover(nil, errors.New("boom"), nil)
	tr.Replan()
	tr.Start("unit-plan/replanned", 3)
	tr.Audit(
		trace.CardAudit{OpID: 1, Estimated: 10, Actual: 1000, Flagged: true},
		trace.CardAudit{OpID: 2, Estimated: 10, Actual: 11},
	)
	return run
}

func TestCollectorFoldsSpanStream(t *testing.T) {
	h := NewHub()
	run := driveRun(t, h)

	snap := h.Registry().Snapshot()
	check := func(name string, labels map[string]string, want float64) {
		t.Helper()
		got, ok := snap.Counter(name, labels)
		if !ok || got != want {
			t.Errorf("%s%v = %v (present=%v), want %v", name, labels, got, ok, want)
		}
	}
	check("rheem_atoms_total", map[string]string{"platform": "java", "status": "ok"}, 1)
	check("rheem_atoms_total", map[string]string{"platform": "sparksim", "status": "ok"}, 1)
	check("rheem_atoms_total", map[string]string{"platform": "sparksim", "status": "error"}, 1)
	check("rheem_retries_total", map[string]string{"platform": "java"}, 1)
	check("rheem_records_in_total", map[string]string{"platform": "java"}, 100)
	check("rheem_records_out_total", map[string]string{"platform": "java"}, 40)
	check("rheem_records_out_total", map[string]string{"platform": "sparksim"}, 7)
	check("rheem_failovers_total", nil, 1)
	check("rheem_replans_total", nil, 1)
	check("rheem_runs_total", nil, 1)
	check("rheem_card_audits_total", map[string]string{"flagged": "true"}, 1)
	check("rheem_card_audits_total", map[string]string{"flagged": "false"}, 1)
	check("rheem_card_misestimate_ratio", nil, 0.5)

	if n, ok := snap.HistogramCount("rheem_atom_latency_seconds", map[string]string{"platform": "java"}); !ok || n != 1 {
		t.Errorf("java latency observations = %v (present=%v)", n, ok)
	}
	if n, ok := snap.HistogramCount("rheem_conversion_bytes", map[string]string{"platform": "java"}); !ok || n != 1 {
		t.Errorf("java conversion-bytes observations = %v (present=%v)", n, ok)
	}

	// Live progress: failed span counts toward atoms_failed, the
	// loop-body span moved records but not atoms_done; the replacement
	// plan's RunStart bumped the denominator.
	st := run.status()
	if st.AtomsTotal != 3 || st.AtomsDone != 1 || st.AtomsFailed != 1 || st.AtomsRunning != 0 {
		t.Errorf("progress = total %d done %d failed %d running %d",
			st.AtomsTotal, st.AtomsDone, st.AtomsFailed, st.AtomsRunning)
	}
	if st.RecordsOut != 47 || st.Retries != 1 || st.Failovers != 1 || st.Replans != 1 {
		t.Errorf("counters = records %d retries %d failovers %d replans %d",
			st.RecordsOut, st.Retries, st.Failovers, st.Replans)
	}

	run.End(nil)
	statuses := h.Runs().Status()
	if len(statuses) != 1 || !statuses[0].Done || statuses[0].Name != "unit-plan" {
		t.Fatalf("tracker status = %+v", statuses)
	}
}

// TestCollectorCountsCancelledApart ends one span per kind of failure:
// a run's cancellation, bare or wrapped the way a loop wraps its body's
// error, is "cancelled"; a deadline (a job's or an atom timeout's) and a
// plain failure are "error".
func TestCollectorCountsCancelledApart(t *testing.T) {
	h := NewHub()
	tr, run := h.NewRunTracer("cancel-plan")
	for _, err := range []error{
		context.Canceled,
		fmt.Errorf("executor: loop body iteration 2: %w", context.Canceled),
		context.DeadlineExceeded,
		fmt.Errorf("executor: atom exceeded atom timeout 1ms: %w", context.DeadlineExceeded),
		errors.New("boom"),
		nil,
	} {
		sp := &trace.Span{Kind: trace.KindAtom, Platform: "java", Iteration: -1}
		tr.Begin(sp, time.Time{})
		tr.End(sp, engine.Metrics{}, err)
	}
	run.End(nil)

	snap := h.Registry().Snapshot()
	for status, want := range map[string]float64{"cancelled": 2, "error": 3, "ok": 1} {
		if got, _ := snap.Counter("rheem_atoms_total", map[string]string{"platform": "java", "status": status}); got != want {
			t.Errorf("rheem_atoms_total{status=%q} = %v, want %v", status, got, want)
		}
	}
}

func TestRunTrackerOccupancyAndRetirement(t *testing.T) {
	tk := NewRunTracker()
	base := time.Unix(1700000000, 0)
	clock := base
	tk.SetClock(func() time.Time { return clock })

	run := tk.Begin("occ")
	run.setTotal(4)
	run.spanStarted("java")
	run.spanStarted("java")
	run.spanStarted("sqlite3sim")

	clock = clock.Add(time.Second)
	st := tk.Status()[0]
	if st.Occupancy["java"] != 2 || st.Occupancy["sqlite3sim"] != 1 || st.AtomsRunning != 3 {
		t.Fatalf("occupancy = %+v running=%d", st.Occupancy, st.AtomsRunning)
	}
	if st.ElapsedMS != 1000 {
		t.Fatalf("elapsed = %d", st.ElapsedMS)
	}

	run.spanEnded("java", 500, false, true)
	run.spanEnded("java", 0, true, true)
	run.spanEnded("sqlite3sim", 250, false, true)
	st = tk.Status()[0]
	if len(st.Occupancy) != 0 || st.AtomsRunning != 0 {
		t.Fatalf("occupancy after drain = %+v running=%d", st.Occupancy, st.AtomsRunning)
	}
	// 750 records over a 1s-old run → windowed rate uses run age.
	if st.RecordsPerSec != 750 {
		t.Fatalf("records/sec = %v", st.RecordsPerSec)
	}

	run.End(errors.New("fell over"))
	st = tk.Status()[0]
	if !st.Done || st.Err != "fell over" {
		t.Fatalf("done status = %+v", st)
	}

	// Finished runs retire into bounded history.
	for i := 0; i < DefaultDoneHistory+10; i++ {
		r := tk.Begin("churn")
		r.End(nil)
	}
	if got := len(tk.Status()); got != DefaultDoneHistory {
		t.Fatalf("history length = %d, want %d", got, DefaultDoneHistory)
	}
}

func TestRunTrackerWriteJSON(t *testing.T) {
	tk := NewRunTracker()
	tk.Begin("live")
	var sb strings.Builder
	if err := tk.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"runs"`, `"name":"live"`, `"atoms_total"`, `"records_per_sec"`} {
		if !strings.Contains(out, want) {
			t.Errorf("payload missing %s:\n%s", want, out)
		}
	}
}

// runTracerAllocationGate is what one run's telemetry allocates, pinned
// one above its reading: the run (which holds its tracer), the span, the
// tracer's span list, the audit record the tracer adopts and the
// snapshot's Trace — 5 objects at GOMAXPROCS 1 to 4. It read 14 while the run, its tracer, the
// collector's closure and its consumer slice were four objects,
// occupancy and the rate window grew on the heap, Audit copied the
// records, Snapshot copied both lists and a two-label child lookup
// joined its key.
const runTracerAllocationGate = 6

// TestRunTracerAllocationGate pins a run's telemetry cost, end to end
// through the hub: NewRunTracer, Start, one span, one audit record,
// Snapshot, End.
func TestRunTracerAllocationGate(t *testing.T) {
	h := NewHub()
	got := testing.AllocsPerRun(200, func() {
		tr, run := h.NewRunTracer("gate")
		tr.Start("gate", 1)
		sp := tr.Begin(&trace.Span{Kind: trace.KindAtom, Platform: "java", Iteration: -1}, time.Time{})
		tr.End(sp, engine.Metrics{InRecords: 4, OutRecords: 2}, nil)
		tr.Audit(trace.CardAudit{OpID: 1, Estimated: 2, Actual: 2})
		if snap := tr.Snapshot(); len(snap.Spans) != 1 || len(snap.Audits) != 1 {
			t.Fatalf("snapshot holds %d spans and %d audits, want 1 and 1", len(snap.Spans), len(snap.Audits))
		}
		run.End(nil)
	})
	t.Logf("%.0f allocations per traced run (gate %d)", got, runTracerAllocationGate)
	if got > runTracerAllocationGate {
		t.Errorf("%.0f allocations per traced run, gate is %d", got, runTracerAllocationGate)
	}
}

// TestRunSinkConcurrent drives one run's tracer from many goroutines, as
// the scheduler does, while /runs is read: the run folds every event
// under its tracer's lock, a fourth platform spills its occupancy past
// the run's own array, and every count comes out exact.
func TestRunSinkConcurrent(t *testing.T) {
	h := NewHub()
	tr, run := h.NewRunTracer("concurrent")
	const workers, spans = 8, 50
	tr.Start("concurrent", workers*spans)
	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				h.Runs().Status()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(platform engine.PlatformID) {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				sp := tr.Begin(&trace.Span{Kind: trace.KindAtom, Platform: platform, Iteration: -1}, time.Time{})
				tr.End(sp, engine.Metrics{OutRecords: 1}, nil)
				tr.Audit(trace.CardAudit{OpID: i})
			}
		}([]engine.PlatformID{"java", "sparksim", "relengine", "fourth"}[w%4])
	}
	wg.Wait()
	close(stop)
	<-scraped
	st := h.Runs().Status()[0]
	snap := tr.Snapshot()
	if st.AtomsDone != workers*spans || st.RecordsOut != workers*spans || st.AtomsRunning != 0 ||
		len(snap.Spans) != workers*spans || len(snap.Audits) != workers*spans {
		t.Errorf("status %+v and %d spans, %d audits after %d spans", st, len(snap.Spans), len(snap.Audits), workers*spans)
	}
	run.End(nil)
}
