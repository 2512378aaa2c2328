package executor

import (
	"testing"

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

// spanAtomIDs collects the distinct atom IDs of the trace's top-level
// spans (Iteration < 0 — loop-body spans carry their iteration).
func spanAtomIDs(tr *trace.Trace) map[int]bool {
	ids := map[int]bool{}
	for _, sp := range tr.Spans {
		if sp.Iteration < 0 {
			ids[sp.AtomID] = true
		}
	}
	return ids
}

func TestTraceCoversEveryAtom(t *testing.T) {
	reg := fullRegistry(t)
	ep, err := optimizer.Optimize(simplePlan(t, intRecords(50)), reg,
		optimizer.Options{FixedPlatform: javaengine.ID})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ep, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Result.Trace not collected")
	}
	if len(res.Trace.Spans) != len(ep.Atoms) {
		t.Fatalf("%d spans for %d atoms", len(res.Trace.Spans), len(ep.Atoms))
	}
	ids := spanAtomIDs(res.Trace)
	for _, atom := range ep.Atoms {
		if !ids[atom.ID] {
			t.Errorf("atom %d executed without a span", atom.ID)
		}
	}
	// The spans' metrics are the per-atom breakdown of the aggregate.
	var jobs int
	for _, sp := range res.Trace.Spans {
		jobs += sp.Metrics.Jobs
	}
	if jobs != res.Metrics.Jobs {
		t.Errorf("spans carry %d jobs, the run aggregate %d", jobs, res.Metrics.Jobs)
	}
	var estTotal int64
	for _, sp := range res.Trace.Spans {
		if sp.Kind != trace.KindAtom {
			t.Errorf("span %d kind = %q", sp.ID, sp.Kind)
		}
		if sp.Platform != javaengine.ID {
			t.Errorf("span %d platform = %q", sp.ID, sp.Platform)
		}
		if sp.Failed() || len(sp.Attempts) != 1 || sp.Retries != 0 {
			t.Errorf("clean run span = %+v", sp)
		}
		if sp.EndedAt.Before(sp.StartedAt) {
			t.Errorf("span %d ended before it started", sp.ID)
		}
		estTotal += int64(sp.EstCost)
	}
	if estTotal == 0 {
		t.Error("no span carries an optimizer cost estimate")
	}
}

func TestTraceRecordsRetries(t *testing.T) {
	reg, _ := flakyRegistry(t, 2)
	ep, err := optimizer.Optimize(simplePlan(t, intRecords(5)), reg, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ep, reg, Options{RetryBackoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Spans) != 1 {
		t.Fatalf("%d spans, want the single flaky atom", len(res.Trace.Spans))
	}
	sp := res.Trace.Spans[0]
	if len(sp.Attempts) != 3 || sp.Retries != 2 {
		t.Fatalf("attempts = %d, retries = %d, want 3 and 2", len(sp.Attempts), sp.Retries)
	}
	for i, att := range sp.Attempts {
		if att.Number != i+1 {
			t.Errorf("attempt %d numbered %d", i, att.Number)
		}
		failed := i < 2
		if (att.Err != "") != failed {
			t.Errorf("attempt %d error = %q", i+1, att.Err)
		}
		if att.Fatal {
			t.Errorf("transient attempt %d marked fatal", i+1)
		}
	}
	if sp.Failed() {
		t.Errorf("eventually successful span carries error %q", sp.Err)
	}
	if sp.Metrics.OutRecords == 0 || sp.Metrics.Jobs == 0 {
		t.Errorf("span metrics empty: %+v", sp.Metrics)
	}
}

func TestTraceConversionAccounting(t *testing.T) {
	// One branch on spark, the rest on java: the cross-platform edges
	// force channel conversions that must land on the consuming spans.
	reg := fullRegistry(t)
	pp, fa := faultPlan(t, []engine.PlatformID{sparksim.ID, javaengine.ID})
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{DisableRules: true, ForcedAssignments: fa})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ep, reg, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	converted := 0
	for _, sp := range res.Trace.Spans {
		if sp.ConvSteps > 0 {
			converted++
			if sp.ConvTime <= 0 {
				t.Errorf("span %d converted %d steps in zero modelled time", sp.ID, sp.ConvSteps)
			}
		}
	}
	if converted == 0 {
		t.Error("no span recorded input conversions on a two-platform plan")
	}
	if len(res.Trace.Platforms()) < 2 {
		t.Errorf("trace platforms = %v, want both", res.Trace.Platforms())
	}
}

func TestTraceLoopSpans(t *testing.T) {
	reg := fullRegistry(t)
	ep := loopPlanFixture(t, reg)
	res, err := Run(ep, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var loops, bodySpans int
	iters := map[int]bool{}
	for _, sp := range res.Trace.Spans {
		switch {
		case sp.Kind == trace.KindLoop:
			loops++
			if sp.Failed() {
				t.Errorf("loop span failed: %q", sp.Err)
			}
		case sp.Iteration >= 0:
			bodySpans++
			iters[sp.Iteration] = true
			if sp.Plan != "body" {
				t.Errorf("body span plan = %q", sp.Plan)
			}
		}
	}
	if loops != 1 {
		t.Errorf("%d loop spans, want 1", loops)
	}
	if bodySpans < 5 {
		t.Errorf("%d loop-body spans for a 5-iteration loop", bodySpans)
	}
	for i := 0; i < 5; i++ {
		if !iters[i] {
			t.Errorf("no body span for iteration %d", i)
		}
	}
}

// loopPlanFixture optimizes a 5-iteration increment loop whose body
// plan is named "body".
func loopPlanFixture(t *testing.T, reg *engine.Registry) *optimizer.ExecutionPlan {
	t.Helper()
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
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{FixedPlatform: javaengine.ID})
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func TestTraceAuditTrail(t *testing.T) {
	reg := fullRegistry(t)
	ep, err := optimizer.Optimize(badSelectivityPlan(t, 1000), reg,
		optimizer.Options{FixedPlatform: javaengine.ID})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ep, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Audits) == 0 {
		t.Fatal("no audit records collected")
	}
	var flagged *trace.CardAudit
	for i := range res.Trace.Audits {
		a := &res.Trace.Audits[i]
		if a.Flagged {
			flagged = a
		}
		if a.ErrFactor < 1 {
			t.Errorf("audit %+v has factor < 1", a)
		}
	}
	if flagged == nil {
		t.Fatal("the 500-vs-0 filter estimate was not flagged")
	}
	if flagged.Actual != 0 || flagged.Estimated < 100 {
		t.Errorf("flagged audit = %+v", flagged)
	}
	if flagged.Platform != javaengine.ID {
		t.Errorf("flagged audit platform = %q", flagged.Platform)
	}
}

func TestTraceFailoverShowsBothPlatforms(t *testing.T) {
	pp, fa := faultPlan(t, []engine.PlatformID{"chaos", "chaos"})
	reg, _ := chaosRegistry(t, fault.Options{Schedules: []fault.Schedule{fault.FailAfterN(1, nil)}})
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{DisableRules: true, ForcedAssignments: fa})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ep, reg, Options{Parallelism: 2, RetryBackoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	platforms := map[engine.PlatformID]bool{}
	for _, id := range tr.Platforms() {
		platforms[id] = true
	}
	if !platforms["chaos"] {
		t.Errorf("trace platforms %v missing the dead platform", tr.Platforms())
	}
	if len(platforms) < 2 {
		t.Fatalf("trace platforms = %v, want the dead platform and a survivor", tr.Platforms())
	}
	// The dead platform's spans include the failed execution that
	// triggered the failover, transient on every attempt; the survivors'
	// spans are all clean.
	var chaosFailed bool
	for _, sp := range tr.SpansOn("chaos") {
		if sp.Failed() {
			chaosFailed = true
			for _, att := range sp.Attempts {
				if att.Err == "" || att.Fatal {
					t.Errorf("failed chaos span %d attempt %+v, want a transient failure", sp.ID, att)
				}
			}
		}
	}
	if !chaosFailed {
		t.Error("no failed span on the quarantined platform")
	}
	for id := range platforms {
		if id == "chaos" {
			continue
		}
		for _, sp := range tr.SpansOn(id) {
			if sp.Failed() {
				t.Errorf("survivor %q has failed span %+v", id, sp)
			}
		}
	}
}

func TestExternalTracerSharesStream(t *testing.T) {
	// Every consumer of a caller-provided tracer sees the same stream,
	// and the tracer keeps what the stream delivered.
	reg := fullRegistry(t)
	ep, err := optimizer.Optimize(simplePlan(t, intRecords(10)), reg,
		optimizer.Options{FixedPlatform: javaengine.ID})
	if err != nil {
		t.Fatal(err)
	}
	var consumerEnds, secondEnds, planDone int
	tr := trace.New(func(e trace.Event) {
		switch e.Kind {
		case trace.SpanEnd:
			consumerEnds++
		case trace.PlanDone:
			planDone++
		}
	}, func(e trace.Event) {
		if e.Kind == trace.SpanEnd {
			secondEnds++
		}
	})
	res, err := Run(ep, reg, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if consumerEnds == 0 || consumerEnds != secondEnds {
		t.Errorf("first consumer saw %d span ends, the second %d", consumerEnds, secondEnds)
	}
	if planDone != 1 {
		t.Errorf("PlanDone events = %d", planDone)
	}
	if len(res.Trace.Spans) != consumerEnds {
		t.Errorf("snapshot has %d spans, stream delivered %d", len(res.Trace.Spans), consumerEnds)
	}
}
