package executor

import (
	"testing"

	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
)

// badSelectivityPlan declares 50% filter selectivity but keeps nothing.
func badSelectivityPlan(t *testing.T, n int) *physical.Plan {
	t.Helper()
	b := plan.NewBuilder("audit")
	recs := intRecords(n)
	s := b.Source("s", plan.Collection(recs))
	s.CardHint = int64(n)
	f := b.Filter(s, func(data.Record) (bool, error) { return false, nil })
	f.Selectivity = 0.5 // wildly wrong: actual is 0
	b.Collect(f)
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

func TestCardinalityAuditFlagsBadEstimates(t *testing.T) {
	full := fullRegistry(t)
	ep, err := optimizer.Optimize(badSelectivityPlan(t, 1000), full,
		optimizer.Options{FixedPlatform: javaengine.ID})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ep, full, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mismatches) == 0 {
		t.Fatal("no mismatch recorded for a 500-vs-0 estimate")
	}
	m := res.Mismatches[0]
	if m.Actual != 0 || m.Estimated < 100 {
		t.Errorf("mismatch = %+v", m)
	}
}

func TestCardinalityAuditQuietWhenAccurate(t *testing.T) {
	full := fullRegistry(t)
	b := plan.NewBuilder("good")
	recs := intRecords(1000)
	s := b.Source("s", plan.Collection(recs))
	s.CardHint = 1000
	m := b.Map(s, plan.Identity())
	b.Collect(m)
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	ep, err := optimizer.Optimize(pp, full, optimizer.Options{FixedPlatform: javaengine.ID})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ep, full, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mismatches) != 0 {
		t.Errorf("accurate estimates flagged: %+v", res.Mismatches)
	}
}
