package algo

import (
	"errors"
	"testing"

	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// narrowOps are Map (×10) → Filter (odd) → FlatMap (0–2 copies, with
// their index) over one-field int rows; fail, when set, is the error a
// UDF returns for a record it names.
func narrowOps(fail func(stage int, r data.Record) error) []*plan.Operator {
	check := func(stage int, r data.Record) error {
		if fail == nil {
			return nil
		}
		return fail(stage, r)
	}
	m := plan.NewSynthetic(plan.KindMap, "m", plan.MapFunc(func(r data.Record) (data.Record, error) {
		return data.NewRecord(data.Int(r.Field(0).Int() * 10)), check(0, r)
	}))
	f := plan.NewSynthetic(plan.KindFilter, "f", plan.FilterFunc(func(r data.Record) (bool, error) {
		return r.Field(0).Int()%20 != 0, check(1, r)
	}))
	fm := plan.NewSynthetic(plan.KindFlatMap, "fm", plan.FlatMapFunc(func(r data.Record) ([]data.Record, error) {
		out := make([]data.Record, r.Field(0).Int()%3)
		for i := range out {
			out[i] = r.Append(data.Int(int64(i)))
		}
		return out, check(2, r)
	}))
	return []*plan.Operator{m, f, fm}
}

// chainOf is the chain of ops, first applied first.
func chainOf(ops []*plan.Operator) Chain {
	var c Chain
	for _, op := range ops {
		c = c.Then(op)
	}
	return c
}

// TestChainIsExecOneOperatorAtATime: a chain's outputs, in order, are
// what Exec makes applying its operators one at a time, with their Bytes
// counted when asked; a fold downstream of it (ExecChain) folds the same
// records; and the failure reported is the first failing record's in
// input order, whichever operator it failed at.
func TestChainIsExecOneOperatorAtATime(t *testing.T) {
	recs := intRecs(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	ops := narrowOps(nil)
	c := chainOf(ops)
	want := recs
	for _, lop := range ops {
		var err error
		if want, err = Exec(&physical.Operator{Logical: lop}, want, nil); err != nil {
			t.Fatal(err)
		}
	}
	got, bytes, err := c.Records(recs, true)
	if err != nil || render(got) != render(want) || bytes != data.TotalBytes(want) {
		t.Fatalf("chain = %s (%d bytes), %v; one operator at a time = %s (%d bytes)", render(got), bytes, err, render(want), data.TotalBytes(want))
	}
	sum := plan.NewSynthetic(plan.KindReduceByKey, "sum", plan.SumField(0))
	sum.Key = plan.FieldKey(1)
	red := plan.NewSynthetic(plan.KindReduce, "total", plan.SumField(0))
	for _, op := range []*physical.Operator{{Logical: sum}, {Logical: sum, Algo: physical.SortGroupBy}, {Logical: red}} {
		folded, err := ExecChain(op, c, recs, nil)
		gathered, _ := Exec(op, want, nil)
		if err != nil || render(folded) != render(gathered) {
			t.Errorf("%s over the chain = %s, %v; over its gathered outputs = %s", op.Name(), render(folded), err, render(gathered))
		}
	}
	// Record 3 fails at the FlatMap, record 5 earlier along the chain, at
	// the Map: record 3 comes first.
	boom := errors.New("boom")
	c = chainOf(narrowOps(func(stage int, r data.Record) error {
		if (stage == 2 && r.Field(0).Int() == 30) || (stage == 0 && r.Field(0).Int() == 5) {
			return boom
		}
		return nil
	}))
	if out, _, err := c.Append(nil, recs, false); !errors.Is(err, boom) || render(out) != "(10, 0)" {
		t.Errorf("a failing chain appended %s and returned %v, want record 1's output and record 3's error", render(out), err)
	}
}
