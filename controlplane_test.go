// Not built under the race detector: it has sync.Pool drop what it holds
// at random, and the engines keep buffers in pools (a FlatMap's row
// windows, a column map's one-row window), so what a Run allocates would
// move with it.

//go:build !race

package rheem_test

import (
	"testing"

	"rheem"
	"rheem/internal/core/batch"
	"rheem/internal/core/executor"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
)

// TestControlPlaneAllocationsIndependentOfWidth is ROADMAP item 7's gate
// on the layers between a logical plan and its result: translating,
// optimizing and running a plan allocate per plan and per atom, never
// per operator. A one-atom chain of hinted filters over a columnar
// source, 4 operators long and 32, must cost each layer the same count
// at both widths, give or take one. They read translate 3, optimize 9
// and run 20 at both; run 25 while a run's telemetry was a tracer,
// closure and consumer slice apart from its run and its trace was
// copied out; run 31 while a Run allocated its state (the run,
// its audit ledger, the top scope's channels and the scheduler's graph)
// instead of leasing it; optimize 14 while the optimizer made its scratch
// per call; with the execution plan's per-operator state in Go maps,
// optimize 20 and run 32. While the layers allocated per operator,
// translation read 12 and 80, optimization 27 and 73, the run 42 and 85.
func TestControlPlaneAllocationsIndependentOfWidth(t *testing.T) {
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]data.Record, 64)
	for i := range recs {
		recs[i] = data.NewRecord(data.Int(int64(i)), data.Int(int64(i%7)))
	}
	cols := batch.FromRecords(recs)
	const runs = 50
	type counts struct{ translate, optimize, run float64 }
	measure := func(width int) counts {
		b := plan.NewBuilder("chain")
		op := b.SourceColumns("cols", cols, nil)
		for i := 0; i < width-2; i++ {
			op = b.FilterWhere(op, 1, plan.Less, data.Int(100))
			op.Selectivity = 1 // every row passes: no audit flags a miss
		}
		b.Collect(op)
		lp := b.MustBuild()

		var c counts
		c.translate = testing.AllocsPerRun(runs, func() {
			if _, err := physical.FromLogical(lp); err != nil {
				t.Fatal(err)
			}
		})
		// Optimize rewrites its plan in place: every call gets a fresh
		// translation (AllocsPerRun warms up with one call more).
		fresh := make([]*physical.Plan, runs+1)
		for i := range fresh {
			fresh[i], _ = physical.FromLogical(lp)
		}
		var ep *optimizer.ExecutionPlan
		next := 0
		c.optimize = testing.AllocsPerRun(runs, func() {
			ep, err = optimizer.Optimize(fresh[next], ctx.Registry(), optimizer.Options{FixedPlatform: javaengine.ID})
			if err != nil {
				t.Fatal(err)
			}
			next++
		})
		if len(ep.Atoms) != 1 {
			t.Fatalf("width %d: %d atoms, want one", width, len(ep.Atoms))
		}
		c.run = testing.AllocsPerRun(runs, func() {
			res, err := executor.Run(ep, ctx.Registry(), executor.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Records) != len(recs) {
				t.Fatalf("width %d: %d records, want %d", width, len(res.Records), len(recs))
			}
		})
		t.Logf("%2d operators: translate %.0f, optimize %.0f, run %.0f allocations", width, c.translate, c.optimize, c.run)
		return c
	}
	narrow, wide := measure(4), measure(32)
	for _, l := range []struct {
		layer        string
		narrow, wide float64
	}{
		{"physical.FromLogical", narrow.translate, wide.translate},
		{"optimizer.Optimize", narrow.optimize, wide.optimize},
		{"executor.Run", narrow.run, wide.run},
	} {
		if d := l.wide - l.narrow; d > 1 || d < -1 {
			t.Errorf("%s allocates %.0f for 4 operators and %.0f for 32: something is per operator", l.layer, l.narrow, l.wide)
		}
	}
}
