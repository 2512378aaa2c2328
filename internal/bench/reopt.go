package bench

import (
	"fmt"
	"time"

	"rheem"
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
// stubborn executor follows the original mis-planned assignment, the
// adaptive one re-plans at the first atom boundary once the audit
// exposes the lie. This takes the §4.2 Executor duty of "monitoring
// the progress of plan execution" to its conclusion.
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
		Note:    "The source's cardinality hint is inflated by the given factor; 'stubborn' keeps the mis-planned platform, 'adaptive' re-plans after the audit fires at the first atom boundary.",
		Columns: []string{"claimed/actual", "stubborn", "adaptive", "re-planned", "saving"},
	}
	pts := datagen.ZipfInts(actual, 1000, 77)
	for _, factor := range []int64{1, 10, 100, 1000} {
		cfg.logf("reopt: factor=%d", factor)
		run := func(adaptive bool) (time.Duration, bool, error) {
			q := ctx.NewJob(fmt.Sprintf("stale-%d-%v", factor, adaptive)).
				ReadSource("liar", plan.Collection(pts), int64(actual)*factor).
				Repeat(iters, func(_ *rheem.LoopBody, state *rheem.DataQuanta) *rheem.DataQuanta {
					return state.Map(func(r data.Record) (data.Record, error) {
						return data.NewRecord(data.Int(r.Field(0).Int() + 1)), nil
					})
				})
			_, rep, err := q.Collect(rheem.WithReOptimize(adaptive))
			if err != nil {
				return 0, false, err
			}
			return pick(cfg, rep.Metrics), rep.Reoptimized, nil
		}
		stubborn, _, err := run(false)
		if err != nil {
			return nil, err
		}
		adaptive, replanned, err := run(true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%dx", factor), Dur(stubborn), Dur(adaptive),
			fmt.Sprint(replanned), Speedup(stubborn, adaptive))
	}
	return []*Table{t}, nil
}
