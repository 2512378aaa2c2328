package executor

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"rheem/internal/core/channel"
	"rheem/internal/core/engine"
	"rheem/internal/core/fault"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/core/trace"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/sparksim"
)

// boomRegistry is a registry whose only platform fails every execution.
func boomRegistry(t *testing.T) (*engine.Registry, *fault.Platform) {
	t.Helper()
	reg := engine.NewRegistry()
	p := wrapJava(t, reg, "boom", fault.Options{Schedules: []fault.Schedule{failAlways(errBoom)}})
	registerMapKinds(t, reg, "boom")
	return reg, p
}

// TestCancellationDuringRetryReturnsContextError cancels the run from
// the monitor at the atom's first retry, before its second attempt: Run
// must return
// the context error itself — not a "failed after retries" wrapper that
// blames the atom.
func TestCancellationDuringRetryReturnsContextError(t *testing.T) {
	reg, _ := boomRegistry(t)
	ep, err := optimizer.Optimize(simplePlan(t, intRecords(3)), reg, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = Run(ep, reg, Options{Context: ctx, RetryBackoff: -1, Tracer: trace.New(func(e trace.Event) {
		if e.Kind == trace.SpanRetry {
			cancel()
		}
	})})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if strings.Contains(err.Error(), "failed after") {
		t.Errorf("cancellation misreported as atom failure: %v", err)
	}
}

// TestAtomTimeoutBoundsAttempts gives each attempt a deadline far
// shorter than the platform's injected latency: the attempt must fail
// with DeadlineExceeded (and say so), while a generous deadline leaves
// the same plan untouched.
func TestAtomTimeoutBoundsAttempts(t *testing.T) {
	reg := engine.NewRegistry()
	wrapJava(t, reg, "slow", fault.Options{Latency: 5 * time.Second})
	registerMapKinds(t, reg, "slow")
	ep, err := optimizer.Optimize(simplePlan(t, intRecords(3)), reg, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(ep, reg, Options{RetryBackoff: -1, AtomTimeout: 20 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run error = %v, want a deadline error", err)
	}
	if !strings.Contains(err.Error(), "atom timeout") {
		t.Errorf("timeout not named in error: %v", err)
	}

	reg = engine.NewRegistry()
	wrapJava(t, reg, "slow", fault.Options{Latency: time.Millisecond})
	registerMapKinds(t, reg, "slow")
	ep, err = optimizer.Optimize(simplePlan(t, intRecords(3)), reg, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ep, reg, Options{AtomTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("generous timeout failed the run: %v", err)
	}
	if len(res.Records) != 3 {
		t.Errorf("%d records", len(res.Records))
	}
}

// TestFatalUDFErrorNotRetried runs a deterministically failing map UDF:
// the engine classifies it fatal, so the executor must fail without
// burning the retry budget on an error that would recur identically.
func TestFatalUDFErrorNotRetried(t *testing.T) {
	boom := errors.New("udf exploded")
	reg := engine.NewRegistry()
	p := wrapJava(t, reg, "java2", fault.Options{}) // no schedules: pure call counter
	registerMapKinds(t, reg, "java2")

	b := plan.NewBuilder("fatal")
	s := b.Source("s", plan.Collection(intRecords(3)))
	s.CardHint = 3
	m := b.Map(s, func(r data.Record) (data.Record, error) { return data.Record{}, boom })
	b.Collect(m)
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var retries int
	_, err = Run(ep, reg, Options{RetryBackoff: -1, Tracer: trace.New(func(e trace.Event) {
		if e.Kind == trace.SpanRetry {
			retries++
		}
	})})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v", err)
	}
	if !engine.IsFatal(err) {
		t.Errorf("fatal classification lost on the run error: %v", err)
	}
	if got := p.Stats().Calls; got != 1 {
		t.Errorf("fatal UDF error executed %d times, want 1", got)
	}
	if retries != 0 {
		t.Errorf("%d retries of a fatal error", retries)
	}
}

// TestBackoffDelayDeterministicAndBounded pins the retry backoff
// shape: deterministic per (atom, attempt), jittered within [d/2, d],
// exponential, capped, and disabled for non-positive bases.
func TestBackoffDelayDeterministicAndBounded(t *testing.T) {
	base := 10 * time.Millisecond
	for attempt := 0; attempt < 4; attempt++ {
		full := base << uint(attempt)
		d := backoffDelay(base, 7, attempt)
		if d != backoffDelay(base, 7, attempt) {
			t.Fatalf("attempt %d: backoff not deterministic", attempt)
		}
		if d < full/2 || d > full {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d, full/2, full)
		}
	}
	if backoffDelay(base, 7, 0) == backoffDelay(base, 8, 0) {
		t.Error("jitter identical across atoms — retry storms stay synchronized")
	}
	if d := backoffDelay(base, 1, 62); d > maxRetryBackoff {
		t.Errorf("uncapped delay %v", d)
	}
	if backoffDelay(0, 1, 1) != 0 || backoffDelay(-time.Second, 1, 1) != 0 {
		t.Error("non-positive base must disable the delay")
	}
}

// opaquePlatform computes in a format nothing can convert to — the
// probe for the executor's input-conversion failure path.
type opaquePlatform struct{ engine.Platform }

func (p *opaquePlatform) ID() engine.PlatformID                { return "opaque" }
func (p *opaquePlatform) NativeFormat() channel.Format         { return channel.Format("opaque") }
func (p *opaquePlatform) RegisterConverters(*channel.Registry) {}

// TestInputConversionFailure forces a downstream atom onto a platform
// whose native format is unreachable from its input's format: feeding
// the atom must fail with a conversion error, not a panic or a stall.
func TestInputConversionFailure(t *testing.T) {
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := sparksim.Register(reg, sparksim.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterPlatform(&opaquePlatform{Platform: javaengine.New()}); err != nil {
		t.Fatal(err)
	}

	// Split source and map across platforms so the map atom is fed
	// through the conversion graph, then reroute it to the opaque
	// platform after optimization (the optimizer would never pick a
	// platform without mappings).
	pp := simplePlan(t, intRecords(4))
	fa := map[int]engine.PlatformID{}
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindSource {
			fa[op.ID] = javaengine.ID
		} else {
			fa[op.ID] = sparksim.ID
		}
	}
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{DisableRules: true, ForcedAssignments: fa})
	if err != nil {
		t.Fatal(err)
	}
	rerouted := false
	for _, atom := range ep.Atoms {
		if atom.Platform == sparksim.ID {
			atom.Platform = "opaque"
			rerouted = true
		}
	}
	if !rerouted {
		t.Fatal("fixture produced no spark atom to reroute")
	}
	_, err = Run(ep, reg, Options{RetryBackoff: -1})
	if err == nil || !strings.Contains(err.Error(), "feeding") {
		t.Fatalf("Run error = %v, want an input-conversion failure", err)
	}
}

// TestUnknownPlatformFails runs a plan whose atom names a platform the
// registry has never seen.
func TestUnknownPlatformFails(t *testing.T) {
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	ep, err := optimizer.Optimize(simplePlan(t, intRecords(4)), reg, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ep.Atoms[0].Platform = "ghost"
	_, err = Run(ep, reg, Options{})
	if err == nil || !strings.Contains(err.Error(), `unknown platform "ghost"`) {
		t.Fatalf("Run error = %v, want unknown-platform failure", err)
	}
}
