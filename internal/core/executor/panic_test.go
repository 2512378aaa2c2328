package executor

import (
	"context"
	"strings"
	"testing"

	"rheem/internal/core/channel"
	"rheem/internal/core/engine"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/core/trace"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/sparksim"
)

// expectPanicContained runs ep, whose execution panics in code the
// executor calls outside any platform's engine.RunAtom, and checks the
// panic net: the run fails with an engine.Fatal reporting a panic (the
// error text is returned for the caller to find its own in), no breaker
// moved, and the same registry serves a clean run afterwards — the
// process being alive to check is the point.
func expectPanicContained(t *testing.T, reg *engine.Registry, ep *optimizer.ExecutionPlan, opts Options) (*trace.Trace, string) {
	t.Helper()
	tr := trace.New()
	opts.Tracer = tr
	opts.RetryBackoff = -1
	res, err := Run(ep, reg, opts)
	if err == nil {
		t.Fatalf("run succeeded with %d records, want the panic as an error", len(res.Records))
	}
	if !engine.IsFatal(err) {
		t.Errorf("error is not engine.Fatal: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "panicked") {
		t.Errorf("error does not report a panic: %v", err)
	}
	for _, id := range reg.PlatformIDs() {
		if st := reg.Health().State(id); st != engine.BreakerClosed {
			t.Errorf("breaker of %s is %v after a panic, want closed", id, st)
		}
	}
	clean, err := optimizer.Optimize(simplePlan(t, intRecords(5)), reg, optimizer.Options{FixedPlatform: javaengine.ID})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := Run(clean, reg, Options{}); err != nil || len(res.Records) != 5 {
		t.Errorf("clean run after the panic: %v", err)
	}
	return tr.Snapshot(), msg
}

// failedSpan returns the trace's failed span of the given kind.
func failedSpan(t *testing.T, tr *trace.Trace, kind string) *trace.Span {
	t.Helper()
	for _, sp := range tr.Spans {
		if sp.Kind == kind && sp.Failed() {
			return sp
		}
	}
	t.Fatalf("no failed %s span among %d spans", kind, len(tr.Spans))
	return nil
}

// TestPanickingLoopConditionFailsTheRun: a DoWhile condition runs on the
// loop atom's scheduler goroutine, in the executor itself.
func TestPanickingLoopConditionFailsTheRun(t *testing.T) {
	reg := fullRegistry(t)
	bb := plan.NewBodyBuilder("body")
	bb.Collect(bb.Map(bb.LoopInput("st"), plan.Identity()))
	b := plan.NewBuilder("dw")
	s := b.Source("s", plan.Collection(intRecords(1)))
	b.Collect(b.DoWhile(s, func(int, []data.Record) (bool, error) { panic("cond exploded") }, 4, bb.MustBuild()))
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{FixedPlatform: javaengine.ID})
	if err != nil {
		t.Fatal(err)
	}
	tr, msg := expectPanicContained(t, reg, ep, Options{})
	if sp := failedSpan(t, tr, trace.KindLoop); !strings.Contains(sp.Err, "cond exploded") || !strings.Contains(msg, "cond exploded") {
		t.Errorf("run error = %q, loop span error = %q", msg, sp.Err)
	}
}

// TestPanickingConverterFailsTheRun: converters run in the executor — on
// a scheduler goroutine to feed an atom across a platform edge, on the
// caller's own to materialize the result.
func TestPanickingConverterFailsTheRun(t *testing.T) {
	// Free and panicking, so every partitioned → collection path takes it.
	boom := channel.Converter{From: channel.Partitioned, To: channel.Collection,
		Convert: func(*channel.Channel) (*channel.Channel, error) { panic("converter exploded") }}

	t.Run("atom input", func(t *testing.T) {
		reg := fullRegistry(t)
		reg.Channels().Register(boom)
		pp, fa := edgeFixture(t, intRecords(8), func(b *plan.Builder, s *plan.Operator) {
			b.Collect(b.Map(s, plan.Identity()))
		})
		ep, err := optimizer.Optimize(pp, reg, optimizer.Options{DisableRules: true, ForcedAssignments: fa})
		if err != nil {
			t.Fatal(err)
		}
		tr, msg := expectPanicContained(t, reg, ep, Options{})
		if sp := failedSpan(t, tr, trace.KindAtom); sp.Platform != javaengine.ID || !strings.Contains(msg, "converter exploded") {
			t.Errorf("run error = %q, failed span ran on %s, want the consumer of the edge", msg, sp.Platform)
		}
	})
	t.Run("result", func(t *testing.T) {
		reg := fullRegistry(t)
		reg.Channels().Register(boom)
		ep, err := optimizer.Optimize(simplePlan(t, intRecords(8)), reg, optimizer.Options{FixedPlatform: sparksim.ID})
		if err != nil {
			t.Fatal(err)
		}
		if _, msg := expectPanicContained(t, reg, ep, Options{}); !strings.Contains(msg, "converter exploded") {
			t.Errorf("run error = %q", msg)
		}
	})
}

// rawPlatform executes atoms without engine.RunAtom's net, the way a
// third-party platform may.
type rawPlatform struct{ *javaengine.Platform }

func (rawPlatform) ID() engine.PlatformID { return "raw" }

func (rawPlatform) ExecuteAtom(context.Context, *engine.TaskAtom, engine.AtomInputs) ([]*channel.Channel, engine.Metrics, error) {
	panic("platform exploded")
}

// TestPanickingPlatformFailsTheRun: a platform that panics in
// ExecuteAtom does so on a scheduler goroutine.
func TestPanickingPlatformFailsTheRun(t *testing.T) {
	t.Run("whole", func(t *testing.T) {
		reg := fullRegistry(t)
		if err := reg.RegisterPlatform(rawPlatform{javaengine.New()}); err != nil {
			t.Fatal(err)
		}
		if err := reg.CloneMappings(javaengine.ID, "raw"); err != nil {
			t.Fatal(err)
		}
		pp, fa := edgeFixture(t, intRecords(8), func(b *plan.Builder, s *plan.Operator) {
			b.Collect(b.Map(s, plan.Identity()))
		})
		for id, pl := range fa {
			if pl == javaengine.ID {
				fa[id] = "raw"
			}
		}
		ep, err := optimizer.Optimize(pp, reg, optimizer.Options{DisableRules: true, ForcedAssignments: fa})
		if err != nil {
			t.Fatal(err)
		}
		tr, msg := expectPanicContained(t, reg, ep, Options{})
		if !strings.Contains(msg, "platform exploded") {
			t.Errorf("run error = %q", msg)
		}
		if sp := failedSpan(t, tr, trace.KindAtom); sp.Platform != "raw" {
			t.Errorf("failed atom span ran on %s", sp.Platform)
		}
	})
}

// edgeFixture builds a plan whose source is pinned to spark and whose
// compute chain is pinned to java, so the chain becomes a compute atom
// with exactly one external input, across a platform edge. build
// receives the builder and the source operator and must Collect a sink.
func edgeFixture(t *testing.T, recs []data.Record, build func(b *plan.Builder, s *plan.Operator)) (*physical.Plan, map[int]engine.PlatformID) {
	t.Helper()
	b := plan.NewBuilder("edge-fixture")
	s := b.Source("src", plan.Collection(recs))
	s.CardHint = int64(len(recs))
	build(b, s)
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	fa := map[int]engine.PlatformID{}
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindSource {
			fa[op.ID] = sparksim.ID
		} else {
			fa[op.ID] = javaengine.ID
		}
	}
	return pp, fa
}
