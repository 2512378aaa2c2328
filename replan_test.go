package rheem_test

import (
	"testing"

	"rheem"
	"rheem/internal/core/engine"
	"rheem/internal/core/fault"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
	"rheem/internal/platform/sparksim"
)

// runLyingLoop runs a job whose source claims a thousand times the
// records it yields, feeding a 10-iteration loop, on a context with the
// production cost constants: the audit flags the source at the loop's
// boundary, so the executor re-plans the loop on its own.
func runLyingLoop(t *testing.T, opts ...rheem.RunOption) *rheem.Report {
	t.Helper()
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const actual = 500
	recs := make([]data.Record, actual)
	for i := range recs {
		recs[i] = data.NewRecord(data.Int(int64(i)))
	}
	out, rep, err := ctx.NewJob("lying-loop").
		ReadSource("liar", plan.Collection(recs), 1000*actual).
		Repeat(10, func(_ *rheem.LoopBody, q *rheem.DataQuanta) *rheem.DataQuanta {
			return q.Map(func(r data.Record) (data.Record, error) {
				return data.NewRecord(data.Int(r.Field(0).Int() + 1)), nil
			})
		}).
		Collect(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != actual || out[0].Field(0).Int() != 10 {
		t.Fatalf("%d records, first %v", len(out), out[0])
	}
	if !rep.Reoptimized {
		t.Fatal("the lying source did not trigger a re-plan")
	}
	return rep
}

// planPlatforms counts the operators of a plan and its loop bodies per
// platform.
func planPlatforms(ep *optimizer.ExecutionPlan) map[engine.PlatformID]int {
	n := map[engine.PlatformID]int{}
	for _, op := range ep.Physical.Ops {
		n[ep.Assignment[op.ID]]++
	}
	for _, body := range ep.LoopBodies {
		for pl, c := range planPlatforms(body) {
			n[pl] += c
		}
	}
	return n
}

// TestReplanKeepsOnPlatform: a job pinned with OnPlatform stays on its
// platform through the re-plan its stale statistics trigger.
func TestReplanKeepsOnPlatform(t *testing.T) {
	rep := runLyingLoop(t, rheem.OnPlatform(sparksim.ID))
	if n := planPlatforms(rep.Plan); len(n) != 1 || n[sparksim.ID] == 0 {
		t.Errorf("re-planned job's operators per platform = %v, want sparksim only", n)
	}
}

// TestReplanKeepsExcludedPlatforms: the platforms a run excludes — the
// service's per-tenant isolation lever — stay excluded in the re-plan.
func TestReplanKeepsExcludedPlatforms(t *testing.T) {
	rep := runLyingLoop(t, rheem.WithExcludedPlatforms(javaengine.ID, relengine.ID))
	if n := planPlatforms(rep.Plan); n[javaengine.ID] > 0 || n[relengine.ID] > 0 {
		t.Errorf("re-planned job's operators per platform = %v, want none on the excluded", n)
	}
}

// TestFailedRunReportsItsLastPlan: a job pinned to a dying twin of the
// java engine fails over to a second twin, which dies too. The failed
// run's Report must describe the run as it ended — the failover counted,
// the plan it failed on with nothing on the first twin — not the plan
// it started from.
func TestFailedRunReportsItsLastPlan(t *testing.T) {
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []engine.PlatformID{"twin-a", "twin-b"} {
		dead := fault.Wrap(javaengine.New(), fault.Options{ID: id, Schedules: []fault.Schedule{fault.FailAfterN(0, nil)}})
		if err := fault.Register(ctx.Registry(), dead, javaengine.ID); err != nil {
			t.Fatal(err)
		}
	}
	recs := []data.Record{data.NewRecord(data.Int(1)), data.NewRecord(data.Int(2))}
	_, rep, err := ctx.NewJob("dies-twice").ReadCollection("in", recs).
		Map(func(r data.Record) (data.Record, error) { return r, nil }).
		Collect(rheem.OnPlatform("twin-a"), rheem.WithExcludedPlatforms(javaengine.ID, sparksim.ID, relengine.ID))
	if err == nil {
		t.Fatal("the run survived two dead platforms")
	}
	if rep == nil || rep.Failovers < 1 {
		t.Fatalf("failed run's report = %+v, want at least one failover", rep)
	}
	if n := planPlatforms(rep.Plan); n["twin-a"] > 0 || n["twin-b"] == 0 {
		t.Errorf("failed run's plan has operators per platform %v, want twin-b's and none on twin-a", n)
	}
}
