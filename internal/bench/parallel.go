package bench

import (
	"time"

	"rheem/internal/core/engine"
	"rheem/internal/core/executor"
	"rheem/internal/core/metrics"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
	"rheem/internal/platform/sparksim"
)

// FanOutPlan builds the concurrent-scheduler workload: one source
// fanning out into `branches` independent map branches (each sleeping
// `delay` per record to stand in for real per-tuple work), folded back
// through a union chain into the sink. The shape is a wide diamond —
// exactly the inter-atom parallelism the executor's DAG scheduler is
// built to exploit.
func FanOutPlan(branches, recs int, delay time.Duration) (*physical.Plan, error) {
	b := plan.NewBuilder("fanout")
	src := make([]data.Record, recs)
	for i := range src {
		src[i] = data.NewRecord(data.Int(int64(i)))
	}
	s := b.Source("src", plan.Collection(src))
	s.CardHint = int64(recs)
	var outs []*plan.Operator
	for i := 0; i < branches; i++ {
		off := int64(i)
		outs = append(outs, b.Map(s, func(r data.Record) (data.Record, error) {
			if delay > 0 {
				time.Sleep(delay)
			}
			return data.NewRecord(data.Int(r.Field(0).Int()*int64(branches) + off)), nil
		}))
	}
	u := outs[0]
	for _, o := range outs[1:] {
		u = b.Union(u, o)
	}
	b.Collect(u)
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return physical.FromLogical(p)
}

// FanOutAssignments pins the diamond across platforms so it cannot
// fuse into a single atom: source, unions and sink on the relational
// engine, map branches alternating between java and spark. The
// execution plan then has branches+2 task atoms.
func FanOutAssignments(pp *physical.Plan) map[int]engine.PlatformID {
	fa := make(map[int]engine.PlatformID, len(pp.Ops))
	branch := 0
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindMap {
			if branch%2 == 0 {
				fa[op.ID] = javaengine.ID
			} else {
				fa[op.ID] = sparksim.ID
			}
			branch++
		} else {
			fa[op.ID] = relengine.ID
		}
	}
	return fa
}

// RunFanOutTraced optimizes a fresh fan-out plan against the registry
// and executes it at the given scheduler parallelism, with the run's
// span stream feeding a telemetry hub — the workload behind the
// metrics-overhead acceptance benchmark
// (BenchmarkExecutorParallelismMetrics). A nil hub runs untraced.
func RunFanOutTraced(reg *engine.Registry, hub *metrics.Hub, branches, recs int, delay time.Duration, par int) (*executor.Result, error) {
	pp, err := FanOutPlan(branches, recs, delay)
	if err != nil {
		return nil, err
	}
	return runForced(pp, reg, hub, "fanout",
		optimizer.Options{ForcedAssignments: FanOutAssignments(pp)}, executor.Options{Parallelism: par})
}

// runForced is the run sequence of the fixed-assignment workloads
// (the fan-out benchmarks, E11, E13): optimize pp with the rules off and oo's forced
// assignments, execute it, and — given a hub — trace the run under
// name and hand it to the hub's flight recorder, if it has one, so
// /runs/{id}/profile and trace.json answer for every such run. A nil
// hub runs untraced.
func runForced(pp *physical.Plan, reg *engine.Registry, hub *metrics.Hub, name string, oo optimizer.Options, eo executor.Options) (*executor.Result, error) {
	oo.DisableRules = true
	ep, err := optimizer.Optimize(pp, reg, oo)
	if err != nil {
		return nil, err
	}
	if hub == nil {
		return executor.Run(ep, reg, eo)
	}
	tracer, run := hub.NewRunTracer(name)
	eo.Tracer = tracer
	res, err := executor.Run(ep, reg, eo)
	run.End(err)
	if rec := hub.FlightRecorder(); rec != nil {
		rec.Record(run.ID(), name, run.Started(), run.Ended(), err, tracer.Snapshot())
	}
	return res, err
}
