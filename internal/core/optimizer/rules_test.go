package optimizer

import (
	"testing"

	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

func evens(r data.Record) (bool, error)   { return r.Field(0).Int()%2 == 0, nil }
func bigOnes(r data.Record) (bool, error) { return r.Field(0).Int() > 10, nil }

func countKind(p *physical.Plan, k plan.OpKind) int {
	n := 0
	for _, op := range p.Ops {
		if op.Kind() == k {
			n++
		}
	}
	return n
}

func TestFuseFilters(t *testing.T) {
	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		f1 := b.Filter(s, evens)
		f2 := b.Filter(f1, bigOnes)
		b.Collect(f2)
	})
	changed, err := (FuseFilters{}).Apply(pp)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("rule did not fire")
	}
	if got := countKind(pp, plan.KindFilter); got != 1 {
		t.Fatalf("%d filters after fuse", got)
	}
	if err := pp.Validate(); err != nil {
		t.Fatal(err)
	}
	// The fused filter must behave as the conjunction.
	var fused *physical.Operator
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindFilter {
			fused = op
		}
	}
	if !fused.Enhancer {
		t.Error("fused filter not marked as enhancer")
	}
	for _, tc := range []struct {
		v    int64
		want bool
	}{{4, false}, {11, false}, {12, true}} {
		got, err := fused.Logical.Filter()(data.NewRecord(data.Int(tc.v)))
		if err != nil || got != tc.want {
			t.Errorf("fused(%d) = %v, want %v", tc.v, got, tc.want)
		}
	}
	// Second application: nothing left to fuse.
	changed, _ = (FuseFilters{}).Apply(pp)
	if changed {
		t.Error("rule fired twice")
	}
}

func TestFuseFiltersSkipsSharedFilter(t *testing.T) {
	// The inner filter output is also consumed elsewhere: fusing would
	// change semantics, so the rule must not fire.
	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		f1 := b.Filter(s, evens)
		f2 := b.Filter(f1, bigOnes)
		u := b.Union(f2, f1)
		b.Collect(u)
	})
	changed, err := (FuseFilters{}).Apply(pp)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("rule fired on shared filter")
	}
}

// TestFuseFiltersLeavesHintedFilters: a filter carrying a column
// predicate is not folded into an opaque closure — next to another hinted
// filter or next to a UDF one — so the hint reaches the platform; two UDF
// filters behind them still fuse.
func TestFuseFiltersLeavesHintedFilters(t *testing.T) {
	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		h1 := b.FilterWhere(s, 0, plan.Greater, data.Int(10))
		h2 := b.FilterWhere(h1, 0, plan.Less, data.Int(99))
		b.Collect(b.Filter(b.Filter(h2, evens), bigOnes))
	})
	if err := applyRules(pp, DefaultRules()); err != nil {
		t.Fatal(err)
	}
	hinted := 0
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindFilter && op.Logical.ColPred() != nil {
			hinted++
		}
	}
	if got := countKind(pp, plan.KindFilter); hinted != 2 || got != 3 {
		t.Errorf("%d filters of which %d hinted after the rules, want the two hinted ones and one fused UDF filter", got, hinted)
	}
}

func TestPushFilterBeforeSort(t *testing.T) {
	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		so := b.Sort(s, plan.FieldKey(0), false)
		f := b.Filter(so, evens)
		b.Collect(f)
	})
	changed, err := (PushFilterBeforeSort{}).Apply(pp)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("rule did not fire")
	}
	if err := pp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Now the sort consumes the filter.
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindSort {
			if op.Inputs[0].Kind() != plan.KindFilter {
				t.Error("sort does not consume filter after push-down")
			}
		}
		if op.Kind() == plan.KindSink {
			if op.Inputs[0].Kind() != plan.KindSort {
				t.Error("sink does not consume sort after push-down")
			}
		}
	}
}

func TestRulesFixpointOnChainedPattern(t *testing.T) {
	// Sort→Filter→Filter needs both rules plus the fixpoint driver:
	// fuse the filters, then push the fused filter below the sort.
	// (Execution-level result equivalence is covered by the root
	// package tests; this checks the structural outcome.)
	recs := make([]data.Record, 0, 100)
	for i := int64(0); i < 100; i++ {
		recs = append(recs, data.NewRecord(data.Int(i%37)))
	}
	withRules := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(recs))
		s.CardHint = 100
		so := b.Sort(s, plan.FieldKey(0), false)
		f1 := b.Filter(so, evens)
		f2 := b.Filter(f1, bigOnes)
		b.Collect(f2)
	})
	if err := applyRules(withRules, DefaultRules()); err != nil {
		t.Fatal(err)
	}
	if err := withRules.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(withRules.Ops) >= 5 {
		t.Errorf("rules did not shrink plan: %d ops", len(withRules.Ops))
	}
	// Filter must now precede sort.
	for _, op := range withRules.Ops {
		if op.Kind() == plan.KindSort && op.Inputs[0].Kind() != plan.KindFilter {
			t.Error("fused filter not pushed before sort")
		}
	}
}
