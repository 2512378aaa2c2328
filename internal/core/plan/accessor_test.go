package plan

import (
	"slices"
	"sort"
	"testing"

	"rheem/internal/core/batch"
	"rheem/internal/data"
)

// TestAccessorsByKind walks every OpKind, plain and hinted: each accessor
// returns its payload on the operator that holds it and the zero value on
// every other, as reading a field a kind did not use did while every
// operator carried every kind's fields. A rare hint set after building
// leaves the rest of the payload as it was.
func TestAccessorsByKind(t *testing.T) {
	cols := batch.FromRecords([]data.Record{data.NewRecord(data.Int(1), data.Int(2))})
	bb := NewBodyBuilder("body")
	bb.Collect(bb.LoopInput("li"))
	body := bb.MustBuild()
	holds := map[string]func(*Operator) bool{
		"Source":     func(o *Operator) bool { return o.Source() != nil },
		"Map":        func(o *Operator) bool { return o.Map() != nil },
		"FlatMap":    func(o *Operator) bool { return o.FlatMap() != nil },
		"Filter":     func(o *Operator) bool { return o.Filter() != nil },
		"Group":      func(o *Operator) bool { return o.Group() != nil },
		"Reduce":     func(o *Operator) bool { return o.Reduce() != nil },
		"Pred":       func(o *Operator) bool { return o.Pred() != nil },
		"Cond":       func(o *Operator) bool { return o.Cond() != nil },
		"RightKey":   func(o *Operator) bool { return o.RightKey() != nil },
		"Desc":       func(o *Operator) bool { return o.Desc() },
		"Body":       func(o *Operator) bool { return o.Body() == body },
		"Times":      func(o *Operator) bool { return o.Times() == 3 },
		"MaxIter":    func(o *Operator) bool { return o.MaxIter() == 4 },
		"N":          func(o *Operator) bool { return o.N() == 5 },
		"Conditions": func(o *Operator) bool { return len(o.Conditions()) == 1 && o.Conditions()[0].Op == GreaterEq },
		"ScanKey":    func(o *Operator) bool { return o.ScanKey() == "k" },
		"ColSource":  func(o *Operator) bool { return o.ColSource() == cols },
		"ColPred":    func(o *Operator) bool { return o.ColPred() != nil && o.ColPred().Field == 1 },
		"ColProject": func(o *Operator) bool { return slices.Equal(o.ColProject(), []int{1, 0}) },
		"ColMap":     func(o *Operator) bool { return o.ColMap() != nil && len(o.ColMap().Out) == 1 },
		"ColAgg":     func(o *Operator) bool { return o.ColAgg() != nil && len(o.ColAgg().Fns) == 2 },
		"ColGroup":   func(o *Operator) bool { return o.ColGroup() != nil && len(o.ColGroup().Out) == 1 },
		"ColSort":    func(o *Operator) bool { c, ok := o.ColSort(); return ok && c == 1 },
	}
	sortCol := func(o *Operator) bool { _, ok := o.ColSort(); return ok }
	anyHolds := func(o *Operator) bool { // the zero value, read any other way
		return o.Source() != nil || o.Map() != nil || o.FlatMap() != nil || o.Filter() != nil ||
			o.Group() != nil || o.Reduce() != nil || o.Pred() != nil || o.Cond() != nil ||
			o.RightKey() != nil || o.Desc() || o.Body() != nil || o.Times() != 0 || o.MaxIter() != 0 ||
			o.N() != 0 || o.Conditions() != nil || o.ScanKey() != "" ||
			o.ColSource() != nil || o.ColPred() != nil || o.ColProject() != nil || o.ColMap() != nil ||
			o.ColAgg() != nil || o.ColGroup() != nil || sortCol(o)
	}

	b := NewBuilder("kinds")
	src := b.Source("s", sampleSource())
	rare := b.Source("rare", sampleSource())
	rare.SetScanKey("k")
	theta := b.ThetaJoin(src, src, func(l, r data.Record) (bool, error) { return true, nil }, IECondition{Op: GreaterEq})
	colMap := ColumnMap{In: []ColumnIn{{Field: 0, Kind: batch.ColInt64}}, Out: []batch.ColKind{batch.ColInt64},
		Fn: func(n int, in, out []batch.Column) error { return nil }}
	cases := []struct {
		op   *Operator
		want []string
	}{
		{src, []string{"Source"}},
		{rare, []string{"Source", "ScanKey"}},
		{b.SourceColumns("c", cols, nil), []string{"Source", "ColSource"}},
		{b.LoopInput("li"), nil},
		{b.Map(src, Identity()), []string{"Map"}},
		{b.ProjectCols(src, 1, 0), []string{"Map", "ColProject"}},
		{b.MapColumns(src, colMap), []string{"Map", "ColMap"}},
		{b.FlatMap(src, func(r data.Record) ([]data.Record, error) { return nil, nil }), []string{"FlatMap"}},
		{b.Filter(src, func(data.Record) (bool, error) { return true, nil }), []string{"Filter"}},
		{b.FilterWhere(src, 1, Less, data.Int(3)), []string{"Filter", "ColPred"}},
		{NewSynthetic(KindFilter, "fused", FilterFunc(func(data.Record) (bool, error) { return true, nil })), []string{"Filter"}},
		{b.GroupBy(src, FieldKey(0), func(data.Value, []data.Record) ([]data.Record, error) { return nil, nil }), []string{"Group"}},
		{b.GroupAggregate(src, []int{0}, GroupCol{Fn: GroupCountAll}), []string{"Group", "ColGroup"}},
		{b.ReduceByKey(src, FieldKey(0), SumField(1)), []string{"Reduce"}},
		{b.Reduce(src, SumField(1)), []string{"Reduce"}},
		{b.AggregateCols(src, AggFirst, AggSum), []string{"Reduce", "ColAgg"}},
		{b.Sort(src, FieldKey(0), true), []string{"Desc"}},
		{b.Sort(src, FieldKey(0), false), nil},
		{b.SortColumn(src, 1, true), []string{"Desc", "ColSort"}},
		{b.SortColumn(src, 1, false), []string{"ColSort"}},
		{b.Distinct(src), nil},
		{b.Union(src, src), nil},
		{b.Join(src, src, FieldKey(0), FieldKey(0)), []string{"RightKey"}},
		{theta, []string{"Pred", "Conditions"}},
		{b.Cartesian(src, src), nil},
		{b.Count(src), nil},
		{b.Sample(src, 5), []string{"N"}},
		{b.Repeat(src, 3, body), []string{"Body", "Times"}},
		{b.DoWhile(src, func(int, []data.Record) (bool, error) { return false, nil }, 4, body), []string{"Body", "Cond", "MaxIter"}},
		{b.Collect(src), nil},
	}
	seen := map[OpKind]bool{}
	for _, c := range cases {
		seen[c.op.Kind()] = true
		var got []string
		for name, h := range holds {
			if h(c.op) {
				got = append(got, name)
			}
		}
		sort.Strings(got)
		want := append([]string(nil), c.want...)
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s holds %v, want %v", c.op.Name(), got, want)
		}
		if len(want) == 0 && anyHolds(c.op) {
			t.Errorf("%s returns a payload it does not hold", c.op.Name())
		}
	}
	for k := KindSource; k <= KindSink; k++ {
		if !seen[k] {
			t.Errorf("no case builds a %s", k)
		}
	}
}
