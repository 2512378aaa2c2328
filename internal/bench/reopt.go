package bench

import (
	"fmt"
	"time"

	"rheem"
	"rheem/internal/core/engine"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/data/datagen"
)

func init() {
	register("reopt", reopt)
}

// reopt is E7: the adaptive re-optimization ablation. A source lies
// about its cardinality by the given factor (stale statistics, the
// classic optimizer failure mode) feeding an iterative job; the
// adaptive executor re-plans at the first atom boundary once the audit
// exposes the lie. Re-planning is always on and keeps a caller's pins,
// so the stubborn arm is the same job pinned with OnPlatform to where
// the stale plan put the loop: it cannot migrate. This takes the §4.2
// Executor duty of "monitoring the progress of plan execution" to its
// conclusion.
func reopt(cfg Config) ([]*Table, error) {
	ctx, err := newCtx(cfg)
	if err != nil {
		return nil, err
	}
	actual := 2_000
	iters := 40
	if cfg.Quick {
		actual = 500
		iters = 10
	}
	t := &Table{
		Title:   fmt.Sprintf("E7 — adaptive re-optimization under stale statistics (%s actual points, %d-iteration loop)", Count(actual), iters),
		Note:    "The source's cardinality hint is inflated by the given factor; 'stubborn' is pinned to the platform the stale plan chose for the loop, 'adaptive' runs free and re-plans after the audit fires at the first atom boundary.",
		Columns: []string{"claimed/actual", "stale plan", "stubborn", "adaptive", "re-planned", "saving"},
	}
	pts := datagen.ZipfInts(actual, 1000, 77)
	for _, factor := range []int64{1, 10, 100, 1000} {
		cfg.logf("reopt: factor=%d", factor)
		job := func(arm string) (*plan.Plan, error) {
			return ctx.NewJob(fmt.Sprintf("stale-%d-%s", factor, arm)).
				ReadSource("liar", plan.Collection(pts), int64(actual)*factor).
				Repeat(iters, func(_ *rheem.LoopBody, state *rheem.DataQuanta) *rheem.DataQuanta {
					return state.Map(func(r data.Record) (data.Record, error) {
						return data.NewRecord(data.Int(r.Field(0).Int() + 1)), nil
					})
				}).Plan()
		}
		run := func(arm string, opts ...rheem.RunOption) (time.Duration, bool, error) {
			p, err := job(arm)
			if err != nil {
				return 0, false, err
			}
			_, rep, err := ctx.Execute(p, opts...)
			if err != nil {
				return 0, false, err
			}
			return pick(cfg, rep.Metrics), rep.Reoptimized, nil
		}
		p, err := job("explain")
		if err != nil {
			return nil, err
		}
		ep, err := explainPlan(ctx, p)
		if err != nil {
			return nil, err
		}
		stale := loopPlatform(ep)
		stubborn, _, err := run("stubborn", rheem.OnPlatform(stale))
		if err != nil {
			return nil, err
		}
		adaptive, replanned, err := run("adaptive")
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%dx", factor), string(stale), Dur(stubborn), Dur(adaptive),
			fmt.Sprint(replanned), Speedup(stubborn, adaptive))
	}
	return []*Table{t}, nil
}

// explainPlan is the execution plan ctx.Explain renders for p, free
// choice: translated and optimized, not run.
func explainPlan(ctx *rheem.Context, p *plan.Plan) (*optimizer.ExecutionPlan, error) {
	pp, err := physical.FromLogical(p)
	if err != nil {
		return nil, err
	}
	return optimizer.Optimize(pp, ctx.Registry(), optimizer.Options{Calibration: ctx.Telemetry().Calibrator()})
}

// loopPlatform is the platform of ep's first loop atom ("" without one).
func loopPlatform(ep *optimizer.ExecutionPlan) engine.PlatformID {
	for _, a := range ep.Atoms {
		if a.Kind == engine.AtomLoop {
			return a.Platform
		}
	}
	return ""
}
