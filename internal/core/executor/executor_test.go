package executor

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"
	"time"

	"rheem/internal/core/channel"
	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/core/trace"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
	"rheem/internal/platform/sparksim"
)

// flakyPlatform wraps the java engine, failing the first failuresLeft
// atom executions — the test harness for the executor's "coping with
// failures" duty.
type flakyPlatform struct {
	*javaengine.Platform
	failuresLeft int
	calls        int
}

func (f *flakyPlatform) ID() engine.PlatformID { return "flaky" }

func (f *flakyPlatform) ExecuteAtom(ctx context.Context, atom *engine.TaskAtom, inputs engine.AtomInputs) ([]*channel.Channel, engine.Metrics, error) {
	f.calls++
	if f.failuresLeft > 0 {
		f.failuresLeft--
		return nil, engine.Metrics{Jobs: 1, Sim: time.Millisecond}, errors.New("injected failure")
	}
	return f.Platform.ExecuteAtom(ctx, atom, inputs)
}

// flakyRegistry registers only the flaky platform with java-like
// mappings.
func flakyRegistry(t *testing.T, failures int) (*engine.Registry, *flakyPlatform) {
	t.Helper()
	reg := engine.NewRegistry()
	fp := &flakyPlatform{Platform: javaengine.New(), failuresLeft: failures}
	if err := reg.RegisterPlatform(fp); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []plan.OpKind{
		plan.KindSource, plan.KindMap, plan.KindFilter, plan.KindSink,
		plan.KindRepeat, plan.KindDoWhile, plan.KindLoopInput, plan.KindReduce,
	} {
		if err := reg.RegisterMapping(engine.Mapping{
			Platform: "flaky", Kind: kind, Algo: physical.Default,
			Cost: cost.ConstModel(cost.Cost{CPU: time.Microsecond}),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return reg, fp
}

func simplePlan(t *testing.T, recs []data.Record) *physical.Plan {
	t.Helper()
	b := plan.NewBuilder("p")
	s := b.Source("s", plan.Collection(recs))
	s.CardHint = int64(len(recs))
	m := b.Map(s, func(r data.Record) (data.Record, error) {
		return r.Append(data.Bool(true)), nil
	})
	b.Collect(m)
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

func intRecords(n int) []data.Record {
	out := make([]data.Record, n)
	for i := range out {
		out[i] = data.NewRecord(data.Int(int64(i)))
	}
	return out
}

func TestRetrySucceedsWithinBudget(t *testing.T) {
	reg, fp := flakyRegistry(t, 2)
	ep, err := optimizer.Optimize(simplePlan(t, intRecords(5)), reg, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var retries int
	res, err := Run(ep, reg, Options{Tracer: trace.New(func(e trace.Event) {
		if e.Kind == trace.SpanRetry {
			retries++
		}
	})})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 5 {
		t.Errorf("got %d records", len(res.Records))
	}
	if retries != 2 {
		t.Errorf("observed %d retry events", retries)
	}
	if fp.calls != 3 {
		t.Errorf("platform called %d times", fp.calls)
	}
	if res.Metrics.Retries != 2 {
		t.Errorf("metrics retries = %d", res.Metrics.Retries)
	}
}

// TestRetriesExhaustedFails pins the constant retry budget: a failure
// not marked engine.Fatal is retried twice, so a platform that keeps
// failing is called three times before the run fails.
func TestRetriesExhaustedFails(t *testing.T) {
	reg, fp := flakyRegistry(t, 10)
	ep, err := optimizer.Optimize(simplePlan(t, intRecords(3)), reg, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(ep, reg, Options{RetryBackoff: -1})
	if err == nil {
		t.Fatal("run succeeded despite persistent failures")
	}
	if fp.calls != 3 {
		t.Errorf("platform called %d times, want 3 (two retries)", fp.calls)
	}
	if !strings.Contains(err.Error(), "after 3 attempt") {
		t.Errorf("error text misreports the attempt count: %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	reg, _ := flakyRegistry(t, 0)
	ep, err := optimizer.Optimize(simplePlan(t, intRecords(3)), reg, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ep, reg, Options{Context: ctx}); err == nil {
		t.Error("cancelled run succeeded")
	}
}

func fullRegistry(t *testing.T) *engine.Registry {
	t.Helper()
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := sparksim.Register(reg, sparksim.Config{JobOverhead: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestCrossPlatformConversionAccounted(t *testing.T) {
	// Pin to spark: the collection result must be converted from the
	// partitioned format, so MovedBytes/Conversions are non-zero.
	reg := fullRegistry(t)
	ep, err := optimizer.Optimize(simplePlan(t, intRecords(100)), reg,
		optimizer.Options{FixedPlatform: sparksim.ID})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ep, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 100 {
		t.Errorf("got %d records", len(res.Records))
	}
	if res.Metrics.Conversions == 0 {
		t.Error("no conversions recorded for partitioned→collection result")
	}
	if res.Metrics.Jobs < 1 {
		t.Error("no jobs recorded")
	}
}

func TestLoopChargesPerIterationJobs(t *testing.T) {
	// A 5-iteration loop pinned to spark must launch ≥5 jobs: the
	// executor unrolls the loop, and each body atom execution is a
	// simulated job with its JobOverhead. This is the Figure 2 effect.
	reg := fullRegistry(t)
	bb := plan.NewBodyBuilder("body")
	li := bb.LoopInput("st")
	m := bb.Map(li, func(r data.Record) (data.Record, error) {
		return data.NewRecord(data.Int(r.Field(0).Int() + 1)), nil
	})
	bb.Collect(m)
	body := bb.MustBuild()

	b := plan.NewBuilder("loop")
	s := b.Source("s", plan.Collection(intRecords(1)))
	rep := b.Repeat(s, 5, body)
	b.Collect(rep)
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{FixedPlatform: sparksim.ID})
	if err != nil {
		t.Fatal(err)
	}
	var iterations int
	res, err := Run(ep, reg, Options{Tracer: trace.New(func(e trace.Event) {
		if e.Kind == trace.LoopIteration {
			iterations++
		}
	})})
	if err != nil {
		t.Fatal(err)
	}
	if iterations != 5 {
		t.Errorf("%d loop iteration events", iterations)
	}
	if res.Metrics.Jobs < 6 { // source atom + 5 body executions
		t.Errorf("only %d jobs for a 5-iteration loop", res.Metrics.Jobs)
	}
	if len(res.Records) != 1 || res.Records[0].Field(0).Int() != 5 {
		t.Errorf("loop result = %v", res.Records)
	}
	// Simulated time must include ≥6 job overheads.
	if res.Metrics.Sim < 6*time.Millisecond {
		t.Errorf("sim time %v too small for 6 jobs at 1ms overhead", res.Metrics.Sim)
	}
}

func TestDoWhileRespectsMaxIter(t *testing.T) {
	reg := fullRegistry(t)
	bb := plan.NewBodyBuilder("body")
	li := bb.LoopInput("st")
	m := bb.Map(li, plan.Identity())
	bb.Collect(m)
	body := bb.MustBuild()

	b := plan.NewBuilder("dw")
	s := b.Source("s", plan.Collection(intRecords(1)))
	dw := b.DoWhile(s, func(int, []data.Record) (bool, error) { return true, nil }, 4, body)
	b.Collect(dw)
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{FixedPlatform: javaengine.ID})
	if err != nil {
		t.Fatal(err)
	}
	iters := 0
	if _, err := Run(ep, reg, Options{Tracer: trace.New(func(e trace.Event) {
		if e.Kind == trace.LoopIteration {
			iters++
		}
	})}); err != nil {
		t.Fatal(err)
	}
	if iters != 4 {
		t.Errorf("always-true DoWhile ran %d iterations, want MaxIter=4", iters)
	}
}

func TestErrorFromUDFPropagates(t *testing.T) {
	reg := fullRegistry(t)
	boom := fmt.Errorf("udf exploded")
	b := plan.NewBuilder("p")
	s := b.Source("s", plan.Collection(intRecords(3)))
	m := b.Map(s, func(data.Record) (data.Record, error) { return data.Record{}, boom })
	b.Collect(m)
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{FixedPlatform: javaengine.ID})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(ep, reg, Options{RetryBackoff: -1})
	if err == nil || !errors.Is(err, boom) {
		t.Errorf("UDF error not propagated: %v", err)
	}
}

// TestInputFormatMatchesPricedRoute: a hinted java filter takes its
// external input in the format the optimizer priced. Fed by sparksim,
// the native route (Partitioned → Collection, one step) is cheaper than
// going on to a batch, so the filter reads rows; fed by relengine, the
// direct Table → Batch edge is cheaper, so it reads a batch.
func TestInputFormatMatchesPricedRoute(t *testing.T) {
	reg := fullRegistry(t)
	if _, err := relengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		feeder engine.PlatformID
		want   map[string]int
	}{
		{sparksim.ID, map[string]int{"collection": 1}},
		{relengine.ID, map[string]int{"batch": 1}},
	} {
		b := plan.NewBuilder("fed-by-" + string(c.feeder))
		s := b.Source("s", plan.Collection(intRecords(100)))
		b.Collect(b.FilterWhere(s, 0, plan.Less, data.Int(50)))
		pp, err := physical.FromLogical(b.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		fa := map[int]engine.PlatformID{}
		for _, op := range pp.Ops {
			fa[op.ID] = javaengine.ID
			if op.Kind() == plan.KindSource {
				fa[op.ID] = c.feeder
			}
		}
		ep, err := optimizer.Optimize(pp, reg, optimizer.Options{DisableRules: true, ForcedAssignments: fa})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(ep, reg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != 50 {
			t.Errorf("fed by %s: %d records, want 50", c.feeder, len(res.Records))
		}
		var fed int
		for _, sp := range res.Trace.Spans {
			if sp.Kind != trace.KindAtom || sp.Platform != javaengine.ID {
				continue
			}
			fed++
			if !maps.Equal(sp.InFormats, c.want) || sp.ConvSteps != 1 {
				t.Errorf("fed by %s: the filter read %v in %d conversion steps, want %v in 1", c.feeder, sp.InFormats, sp.ConvSteps, c.want)
			}
		}
		if fed != 1 {
			t.Errorf("fed by %s: %d java atom spans, want 1", c.feeder, fed)
		}
	}
}
