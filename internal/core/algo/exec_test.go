package algo

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// opOf is a free-standing physical operator of the kind, its payload set
// by fill.
func opOf(kind plan.OpKind, a physical.Algorithm, fill func(*plan.Operator)) *physical.Operator {
	lop := plan.NewSynthetic(kind, kind.String())
	if fill != nil {
		fill(lop)
	}
	return &physical.Operator{Logical: lop, Algo: a}
}

func render(recs []data.Record) string {
	s := make([]string, len(recs))
	for i, r := range recs {
		s[i] = r.String()
	}
	return strings.Join(s, " ")
}

// multiset renders records order-free.
func multiset(recs []data.Record) string {
	recs = append([]data.Record(nil), recs...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].String() < recs[j].String() })
	return render(recs)
}

// TestExecCoversEveryKind walks plan's kinds: each either has a row form
// or is one of the five its caller owns, for which Exec's error names the
// kind. A kind added to plan lands here, not in one platform's default.
func TestExecCoversEveryKind(t *testing.T) {
	owned := map[plan.OpKind]bool{
		plan.KindSource: true, plan.KindSink: true,
		plan.KindRepeat: true, plan.KindDoWhile: true, plan.KindLoopInput: true,
	}
	n := 0
	for k := plan.OpKind(0); !strings.HasPrefix(k.String(), "OpKind("); k++ {
		n++
		// No input row, so no payload is called: only the dispatch runs.
		out, err := Exec(opOf(k, physical.Default, nil), nil, nil)
		switch {
		case owned[k] && (err == nil || !strings.Contains(err.Error(), k.String())):
			t.Errorf("%s is its caller's to run: Exec returned %v, want an error naming it", k, err)
		case !owned[k] && err != nil:
			t.Errorf("%s has no row form in Exec and is not caller-owned: %v", k, err)
		case k == plan.KindCount && render(out) != render(intRecs(0)):
			t.Errorf("Count of nothing = %s", render(out))
		case k != plan.KindCount && len(out) != 0:
			t.Errorf("%s of nothing = %s", k, render(out))
		}
	}
	if n != len(owned)+14 {
		t.Errorf("walked %d kinds, want the 14 with a row form and the %d caller-owned", n, len(owned))
	}
}

// TestExecThetaJoin: conditions only, residual only and both, under the
// nested loop and IEJoin, give equal multisets; with both, the residual
// only ever sees pairs the conditions passed.
func TestExecThetaJoin(t *testing.T) {
	l, r := kvRecs(1, 5, 2, 3, 3, 8, 4, 1, 5, 5), kvRecs(2, 4, 3, 9, 4, 2, 1, 5)
	conds := []plan.IECondition{{LeftField: 0, Op: plan.Less, RightField: 0}, {LeftField: 1, Op: plan.Greater, RightField: 1}}
	holds := func(a, b data.Record) bool {
		return a.Field(0).Int() < b.Field(0).Int() && a.Field(1).Int() > b.Field(1).Int()
	}
	oddSum := func(a, b data.Record) (bool, error) { return (a.Field(0).Int()+b.Field(1).Int())%2 == 1, nil }
	cases := []struct {
		name  string
		conds []plan.IECondition
		pred  plan.PredFunc
		want  func(a, b data.Record) bool
	}{
		{"conditions", conds, nil, holds},
		{"residual", nil, oddSum, func(a, b data.Record) bool { ok, _ := oddSum(a, b); return ok }},
		{"both", conds, func(a, b data.Record) (bool, error) {
			if !holds(a, b) {
				return false, fmt.Errorf("residual saw %s × %s, which the conditions reject", a, b)
			}
			return oddSum(a, b)
		}, func(a, b data.Record) bool { ok, _ := oddSum(a, b); return ok && holds(a, b) }},
	}
	for _, c := range cases {
		var want []data.Record
		for _, a := range l {
			for _, b := range r {
				if c.want(a, b) {
					want = append(want, data.Concat(a, b))
				}
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: the fixture joins nothing", c.name)
		}
		for _, a := range []physical.Algorithm{physical.NestedLoop, physical.IEJoin} {
			out, err := Exec(opOf(plan.KindThetaJoin, a, func(o *plan.Operator) { o.Conditions, o.Pred = c.conds, c.pred }), l, r)
			if err != nil {
				t.Fatalf("%s under %s: %v", c.name, a, err)
			}
			if multiset(out) != multiset(want) {
				t.Errorf("%s under %s = %s, want %s", c.name, a, multiset(out), multiset(want))
			}
		}
	}
	boom := errors.New("boom")
	_, err := Exec(opOf(plan.KindThetaJoin, physical.NestedLoop, func(o *plan.Operator) {
		o.Pred = func(a, b data.Record) (bool, error) { return false, boom }
	}), l, r)
	if !errors.Is(err, boom) {
		t.Errorf("a failing residual returned %v", err)
	}
}

// TestExecGroupingAlgorithms: the sort forms of GroupBy, ReduceByKey and
// Distinct come out key-ordered (Distinct's key is the record's hash),
// the hash forms in first-seen order, over the same groups.
func TestExecGroupingAlgorithms(t *testing.T) {
	recs := kvRecs(3, 1, 1, 2, 3, 4, 2, 8, 1, 16, 3, 1)
	count := func(k data.Value, g []data.Record) ([]data.Record, error) {
		return []data.Record{data.NewRecord(k, data.Int(int64(len(g))))}, nil
	}
	sum := func(a, b data.Record) (data.Record, error) {
		return data.NewRecord(a.Field(0), data.Int(a.Field(1).Int()+b.Field(1).Int())), nil
	}
	distinct := kvRecs(3, 1, 1, 2, 3, 4, 2, 8, 1, 16)
	sort.Slice(distinct, func(i, j int) bool {
		return int64(data.HashRecord(distinct[i], 0)) < int64(data.HashRecord(distinct[j], 0))
	})
	cases := []struct {
		kind        plan.OpKind
		hash, sort  physical.Algorithm
		fill        func(*plan.Operator)
		first, keys string
	}{
		{plan.KindGroupBy, physical.HashGroupBy, physical.SortGroupBy,
			func(o *plan.Operator) { o.Key, o.Group = plan.FieldKey(0), count },
			"(3, 3) (1, 2) (2, 1)", "(1, 2) (2, 1) (3, 3)"},
		{plan.KindReduceByKey, physical.HashGroupBy, physical.SortGroupBy,
			func(o *plan.Operator) { o.Key, o.Reduce = plan.FieldKey(0), sum },
			"(3, 6) (1, 18) (2, 8)", "(1, 18) (2, 8) (3, 6)"},
		{plan.KindDistinct, physical.HashDistinct, physical.SortDistinct, nil,
			"(3, 1) (1, 2) (3, 4) (2, 8) (1, 16)", render(distinct)},
	}
	for _, c := range cases {
		for _, v := range []struct {
			a    physical.Algorithm
			want string
		}{{c.hash, c.first}, {c.sort, c.keys}, {physical.Default, c.first}} {
			out, err := Exec(opOf(c.kind, v.a, c.fill), recs, nil)
			if err != nil {
				t.Fatalf("%s[%s]: %v", c.kind, v.a, err)
			}
			if got := render(out); got != v.want {
				t.Errorf("%s[%s] = %s, want %s", c.kind, v.a, got, v.want)
			}
		}
	}
}

// TestExecBinaryAndSlicing pins the forms that are not one kernel call:
// Union keeps left-then-right order, Sample is a prefix and never reads
// past a short input, Count counts, a join reads its algorithm.
func TestExecBinaryAndSlicing(t *testing.T) {
	l, r := intRecs(3, 1, 2), intRecs(1, 3)
	keys := func(o *plan.Operator) { o.Key, o.RightKey = plan.FieldKey(0), plan.FieldKey(0) }
	for _, c := range []struct {
		op   *physical.Operator
		want string
	}{
		{opOf(plan.KindUnion, physical.Default, nil), "(3) (1) (2) (1) (3)"},
		{opOf(plan.KindCount, physical.Default, nil), "(3)"},
		{opOf(plan.KindSample, physical.Default, func(o *plan.Operator) { o.N = 2 }), "(3) (1)"},
		{opOf(plan.KindSample, physical.Default, func(o *plan.Operator) { o.N = 7 }), "(3) (1) (2)"},
		{opOf(plan.KindSample, physical.Default, nil), ""}, // N = 0: LIMIT 0
		{opOf(plan.KindJoin, physical.HashJoin, keys), "(3, 3) (1, 1)"},
		{opOf(plan.KindJoin, physical.SortMergeJoin, keys), "(1, 1) (3, 3)"},
		{opOf(plan.KindCartesian, physical.Default, nil), "(3, 1) (3, 3) (1, 1) (1, 3) (2, 1) (2, 3)"},
	} {
		out, err := Exec(c.op, l, r)
		if err != nil {
			t.Fatalf("%s: %v", c.op.Name(), err)
		}
		if got := render(out); got != c.want {
			t.Errorf("%s = %s, want %s", c.op.Name(), got, c.want)
		}
	}
}

// TestMapFilterRowsInPlace: dst may be recs[:0] — the pipeline's row
// window rewrites its own slice stage after stage.
func TestMapFilterRowsInPlace(t *testing.T) {
	recs := intRecs(1, 2, 3, 4, 5, 6)
	backing := &recs[0]
	odd := func(r data.Record) (bool, error) { return r.Field(0).Int()%2 == 1, nil }
	tenfold := func(r data.Record) (data.Record, error) { return data.NewRecord(data.Int(r.Field(0).Int() * 10)), nil }
	recs, err := FilterRows(recs[:0], recs, odd)
	if err != nil || render(recs) != "(1) (3) (5)" {
		t.Fatalf("FilterRows in place = %s, %v", render(recs), err)
	}
	recs, err = MapRows(recs[:0], recs, tenfold)
	if err != nil || render(recs) != "(10) (30) (50)" {
		t.Fatalf("MapRows in place = %s, %v", render(recs), err)
	}
	if &recs[0] != backing {
		t.Error("the in-place forms reallocated")
	}
	boom := errors.New("boom")
	if out, err := MapRows(nil, recs, func(data.Record) (data.Record, error) { return data.Record{}, boom }); !errors.Is(err, boom) || out != nil {
		t.Errorf("a failing MapFunc returned %v, %v", out, err)
	}
	if out, err := FilterRows(nil, recs, func(data.Record) (bool, error) { return false, boom }); !errors.Is(err, boom) || out != nil {
		t.Errorf("a failing FilterFunc returned %v, %v", out, err)
	}
}
