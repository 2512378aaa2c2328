package executor

import (
	"errors"
	"testing"
	"time"

	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/fault"
	"rheem/internal/core/metrics"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/core/trace"
	"rheem/internal/platform/javaengine"
)

// errBoom is the permanent failure the fault tests inject.
var errBoom = errors.New("boom: permanent atom failure")

// failAlways is the "platform is broken" schedule.
func failAlways(err error) fault.Schedule {
	return fault.FailMatching(func(*engine.TaskAtom) bool { return true }, err)
}

// wrapJava registers a fault-injecting wrapper around a fresh java
// engine under the given ID.
func wrapJava(t *testing.T, reg *engine.Registry, id engine.PlatformID, opts fault.Options) *fault.Platform {
	t.Helper()
	opts.ID = id
	p := fault.Wrap(javaengine.New(), opts)
	if err := reg.RegisterPlatform(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// registerMapKinds declares java-like mappings for the kinds the fault
// fixtures use on the given wrapper platform.
func registerMapKinds(t *testing.T, reg *engine.Registry, id engine.PlatformID) {
	t.Helper()
	for _, kind := range []plan.OpKind{plan.KindSource, plan.KindMap, plan.KindUnion, plan.KindSink} {
		if err := reg.RegisterMapping(engine.Mapping{
			Platform: id, Kind: kind, Algo: physical.Default,
			Cost: cost.ConstModel(cost.Cost{CPU: time.Microsecond}),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// faultPlan is a two-branch diamond with each branch pinned to its own
// platform so the branches become separate atoms that run concurrently.
func faultPlan(t *testing.T, branchPlatforms []engine.PlatformID) (*physical.Plan, map[int]engine.PlatformID) {
	t.Helper()
	b := plan.NewBuilder("fault")
	s := b.Source("src", plan.Collection(intRecords(8)))
	s.CardHint = 8
	var outs []*plan.Operator
	for range branchPlatforms {
		outs = append(outs, b.Map(s, plan.Identity()))
	}
	u := outs[0]
	for _, o := range outs[1:] {
		u = b.Union(u, o)
	}
	b.Collect(u)
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	fa := map[int]engine.PlatformID{}
	branch := 0
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindMap {
			fa[op.ID] = branchPlatforms[branch]
			branch++
		} else {
			fa[op.ID] = javaengine.ID
		}
	}
	return pp, fa
}

// TestPermanentFailureCancelsSiblings injects a fatally failing atom
// next to one that blocks (injected latency) until cancelled: Run
// must return the failing atom's error, propagate cancellation to the
// in-flight sibling, and never report plan completion. A telemetry
// hub's tracer must count the failed atom as an error and the sibling
// as cancelled, not as a second error.
func TestPermanentFailureCancelsSiblings(t *testing.T) {
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	// The stalling branch sleeps far longer than the suite tolerates;
	// only cancellation from the boom branch's failure lets it finish.
	stall := wrapJava(t, reg, "stall", fault.Options{Latency: 10 * time.Second})
	// The boom branch holds its failure until the stalling one is
	// executing: a sibling cancelled before it started proves nothing.
	stallRunning := fault.FailMatching(func(*engine.TaskAtom) bool {
		for give := time.Now().Add(5 * time.Second); stall.Stats().Calls == 0 && time.Now().Before(give); {
			time.Sleep(100 * time.Microsecond)
		}
		return true
	}, engine.Fatal(errBoom))
	wrapJava(t, reg, "boom", fault.Options{Schedules: []fault.Schedule{stallRunning}})
	registerMapKinds(t, reg, "stall")
	registerMapKinds(t, reg, "boom")

	pp, fa := faultPlan(t, []engine.PlatformID{"boom", "stall"})
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{DisableRules: true, ForcedAssignments: fa})
	if err != nil {
		t.Fatal(err)
	}

	var planDone bool
	hub := metrics.NewHub()
	tr, run := hub.NewRunTracer("cancel-siblings", func(e trace.Event) {
		if e.Kind == trace.PlanDone {
			planDone = true
		}
	})
	_, err = Run(ep, reg, Options{Parallelism: 4, RetryBackoff: -1, Tracer: tr})
	run.End(err)
	if !errors.Is(err, errBoom) {
		t.Fatalf("Run error = %v, want the injected failure", err)
	}
	if stall.Stats().Cancelled == 0 {
		t.Error("in-flight sibling atom was not cancelled after the failure")
	}
	if planDone {
		t.Error("PlanDone emitted for a failed run")
	}
	snap := hub.Registry().Snapshot()
	for _, c := range []struct {
		platform, status string
		want             float64
	}{
		{"boom", "error", 1},
		{"stall", "cancelled", 1},
		{"stall", "error", 0},
	} {
		if got, _ := snap.Counter("rheem_atoms_total", map[string]string{"platform": c.platform, "status": c.status}); got != c.want {
			t.Errorf("rheem_atoms_total{%s,%s} = %v, want %v", c.platform, c.status, got, c.want)
		}
	}
}

// TestRetryAttemptsMonotonicPerAtom retries two concurrent atoms and
// checks the monitoring contract: each atom's SpanRetry attempts
// arrive strictly increasing from 1, even when retries interleave
// across atoms.
func TestRetryAttemptsMonotonicPerAtom(t *testing.T) {
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	wrapJava(t, reg, "retry", fault.Options{Schedules: []fault.Schedule{fault.FailFirstN(2, nil)}})
	registerMapKinds(t, reg, "retry")

	pp, fa := faultPlan(t, []engine.PlatformID{"retry", "retry"})
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{DisableRules: true, ForcedAssignments: fa})
	if err != nil {
		t.Fatal(err)
	}

	attempts := map[int][]int{} // atom ID → observed retry attempt numbers
	res, err := Run(ep, reg, Options{Parallelism: 2, RetryBackoff: -1, Tracer: trace.New(func(e trace.Event) {
		if e.Kind == trace.SpanRetry {
			attempts[e.Span.AtomID] = append(attempts[e.Span.AtomID], e.Attempt)
		}
	})})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 16 {
		t.Errorf("%d records", len(res.Records))
	}
	if len(attempts) != 2 {
		t.Fatalf("atoms with retries = %d, want the 2 branch atoms (%v)", len(attempts), attempts)
	}
	for id, seq := range attempts {
		if len(seq) != 2 || seq[0] != 1 || seq[1] != 2 {
			t.Errorf("atom %d retry attempts = %v, want [1 2]", id, seq)
		}
	}
	if res.Metrics.Retries != 4 {
		t.Errorf("metrics retries = %d, want 4", res.Metrics.Retries)
	}
}

// TestFailureUnderStress repeats the failure/cancellation scenario at
// high parallelism; under -race it checks the error path for races.
// The failure is fatal, so it is never failed over however often the
// platform fails: the first error wins every run.
func TestFailureUnderStress(t *testing.T) {
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	wrapJava(t, reg, "boom", fault.Options{Schedules: []fault.Schedule{failAlways(engine.Fatal(errBoom))}})
	registerMapKinds(t, reg, "boom")

	for i := 0; i < 25; i++ {
		pp, fa := faultPlan(t, []engine.PlatformID{"boom", javaengine.ID, "boom", javaengine.ID})
		ep, err := optimizer.Optimize(pp, reg, optimizer.Options{DisableRules: true, ForcedAssignments: fa})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(ep, reg, Options{Parallelism: 8, RetryBackoff: -1}); !errors.Is(err, errBoom) {
			t.Fatalf("run %d: error = %v, want the injected failure", i, err)
		}
	}
}
