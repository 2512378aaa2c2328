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

func TestPushFilterBeforeSort(t *testing.T) {
	pp := physOf(t, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(nil))
		so := b.Sort(s, plan.FieldKey(0), false)
		f := b.Filter(so, evens)
		b.Collect(f)
	})
	changed, err := pushFilterBeforeSort(pp)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("push-down did not fire")
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
	// Sort→Filter→Filter needs the fixpoint driver: one pass pushes the
	// first filter below the sort, the next pass the second.
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
	if err := applyRules(withRules); err != nil {
		t.Fatal(err)
	}
	if err := withRules.Validate(); err != nil {
		t.Fatal(err)
	}
	// Both filters now sit below the sort, and the sort feeds the sink.
	for _, op := range withRules.Ops {
		switch op.Kind() {
		case plan.KindSort:
			f2 := op.Inputs[0]
			if f2.Kind() != plan.KindFilter || f2.Inputs[0].Kind() != plan.KindFilter ||
				f2.Inputs[0].Inputs[0].Kind() != plan.KindSource {
				t.Error("both filters not pushed below the sort")
			}
		case plan.KindSink:
			if op.Inputs[0].Kind() != plan.KindSort {
				t.Error("sink does not consume the sort")
			}
		}
	}
	if got := countKind(withRules, plan.KindFilter); got != 2 {
		t.Errorf("%d filters after the rewrites, want 2", got)
	}
}
