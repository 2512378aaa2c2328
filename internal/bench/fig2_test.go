package bench

import (
	"testing"
	"time"

	"rheem"
	"rheem/internal/core/engine"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/sparksim"
)

// assignedTo counts the operators of an execution plan and its loop
// bodies per platform.
func assignedTo(ep *optimizer.ExecutionPlan) map[engine.PlatformID]int {
	n := map[engine.PlatformID]int{}
	for _, op := range ep.Physical.Ops {
		n[ep.Assignment[op.ID]]++
	}
	for _, body := range ep.LoopBodies {
		for pl, c := range assignedTo(body) {
			n[pl] += c
		}
	}
	return n
}

// TestFigure2Shape is the paper's Figure 2 at -quick scale, the halves
// of it that hold on any host: java beats sparksim by at least 5× at
// 500 points (sparksim pays 50 ms of modelled job submission per
// iteration), and the spark − java gap grows with the iteration count.
// Both arms are pinned with OnPlatform while the executor re-plans on
// its own; a pinned paper arm must not migrate.
func TestFigure2Shape(t *testing.T) {
	ctx, err := newCtx(Config{})
	if err != nil {
		t.Fatal(err)
	}
	arm := func(pts []data.Record, iters int, platform engine.PlatformID) time.Duration {
		t.Helper()
		rep, err := fig2Arm(ctx, pts, iters, platform)
		if err != nil {
			t.Fatal(err)
		}
		if n := assignedTo(rep.Plan); len(n) != 1 || n[platform] == 0 {
			t.Fatalf("the arm pinned to %s ran with operators on %v", platform, n)
		}
		return rep.Metrics.Sim
	}

	small := fig2Points(500, 500)
	java, spark := arm(small, 10, javaengine.ID), arm(small, 10, sparksim.ID)
	if spark < 5*java {
		t.Errorf("at 500 points java %v, spark %v: java wins by %.1f×, want ≥ 5×", java, spark, float64(spark)/float64(java))
	}

	pts := fig2Points(2_000, 99)
	prev := time.Duration(-1 << 63)
	for _, iters := range []int{2, 5, 10} {
		gap := arm(pts, iters, sparksim.ID) - arm(pts, iters, javaengine.ID)
		if gap <= prev {
			t.Errorf("spark − java gap %v at %d iterations, not above %v at fewer", gap, iters, prev)
		}
		prev = gap
	}
}

// Figure 2's crossover, as the optimizer sees it. The optimizer, on
// the production cost constants, gives the 100-iteration SVM's loop to
// java up to 190 000 points and to sparksim from 195 000. E1 (rheem-bench
// -experiment fig2, simulated time, on a 2-core Xeon) measures java
// 1.6–2× ahead at 100 000 points and the two even at 200 000 (java/spark
// 0.89–1.05 over eight runs; java runs the per-point gradient Map over
// row windows on both cores). The bracket is that measured one: the
// flip falls after fig2FlipAfter points and by fig2FlipBy. A change that
// moves it re-states the bracket and re-measures E1.
const fig2FlipAfter, fig2FlipBy = 100_000, 200_000

// TestOptimizerTracksFigure2 plans the Figure 2 SVM without running it
// over the E1 sizes, sizing the points from a source's cardinality
// hint rather than generated records: java at the small end, a loop
// bodied on sparksim at the large end, and exactly one flip, inside
// the stated bracket.
func TestOptimizerTracksFigure2(t *testing.T) {
	ctx, err := newCtx(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int64{1_000, 10_000, 50_000, 100_000, 200_000, 500_000}
	plans := make([]*optimizer.ExecutionPlan, len(sizes))
	for i, n := range sizes {
		p, err := svmShape(ctx, n, 100)
		if err != nil {
			t.Fatal(err)
		}
		if plans[i], err = explainPlan(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if n := assignedTo(plans[0]); len(n) != 1 || n[javaengine.ID] == 0 {
		t.Errorf("at %d points the plan is on %v, want java alone", sizes[0], n)
	}
	for _, body := range plans[len(plans)-1].LoopBodies {
		for _, op := range body.Physical.Ops {
			// The loop state's entry point is no work: the optimizer leaves it where it likes.
			if pl := body.Assignment[op.ID]; op.Kind() != plan.KindLoopInput && pl != sparksim.ID {
				t.Errorf("at %d points the loop body's %s is on %s, want sparksim", sizes[len(sizes)-1], op.Name(), pl)
			}
		}
	}
	flips := 0
	for i := 1; i < len(plans); i++ {
		if loopPlatform(plans[i]) == loopPlatform(plans[i-1]) {
			continue
		}
		flips++
		if sizes[i-1] < fig2FlipAfter || sizes[i] > fig2FlipBy {
			t.Errorf("the loop flips to %s between %d and %d points, outside (%d, %d]",
				loopPlatform(plans[i]), sizes[i-1], sizes[i], fig2FlipAfter, fig2FlipBy)
		}
	}
	if flips != 1 {
		t.Errorf("the loop changes platform %d times over %v, want once", flips, sizes)
	}
}

// svmShape is the Figure 2 SVM's dataflow (ml.SVM's: the points ×
// state Cartesian, per-point gradients, their sum and the step) with
// the points a source that only claims n records. The UDFs are never
// called: the plan is only explained.
func svmShape(ctx *rheem.Context, n int64, iters int) (*plan.Plan, error) {
	same := func(r data.Record) (data.Record, error) { return r, nil }
	init := []data.Record{data.NewRecord(data.Int(0), data.Vec(make([]float64, fig2Dim)))}
	return ctx.NewJob("svm").ReadCollection("init", init).
		Repeat(iters, func(lb *rheem.LoopBody, state *rheem.DataQuanta) *rheem.DataQuanta {
			return lb.ReadSource("points", plan.Collection(nil), n).Cartesian(state).Map(same).
				Reduce(func(a, _ data.Record) (data.Record, error) { return a, nil }).Map(same)
		}).Plan()
}
