//go:build go1.24

package metrics

import (
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"rheem/internal/core/engine"
	"rheem/internal/core/trace"
)

// TestRetiredRunPinsNoSpan: the done-history keeps a finished run's
// frozen status, not the run, so a run that owns its tracer — and the
// tracer its spans — is garbage once its caller lets go, while /runs
// still lists it. Until then the caller's snapshot after End still
// holds the run's spans.
func TestRetiredRunPinsNoSpan(t *testing.T) {
	h := NewHub()
	span := func() weak.Pointer[trace.Span] {
		tr, run := h.NewRunTracer("retired")
		sp := tr.Begin(&trace.Span{Kind: trace.KindAtom, Platform: "java", Iteration: -1}, time.Time{})
		tr.End(sp, engine.Metrics{OutRecords: 3}, nil)
		run.End(nil)
		if n := len(tr.Snapshot().Spans); n != 1 {
			t.Errorf("a snapshot after End holds %d spans, want the run's 1", n)
		}
		return weak.Make(sp)
	}()
	runtime.GC()
	runtime.GC()
	if span.Value() != nil {
		t.Error("a retired run's span is still reachable: the tracker pins the run")
	}
	var sb strings.Builder
	if err := h.Runs().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, `"name":"retired"`) || !strings.Contains(out, `"atoms_done":1`) {
		t.Errorf("/runs no longer lists the retired run:\n%s", out)
	}
}
