package javaengine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"rheem/internal/core/batch"
	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// physOp wraps a logical operator the way physical.FromLogical would,
// enough for ExecOp dispatch.
func physOp(lop *plan.Operator) *physical.Operator {
	return &physical.Operator{Logical: lop, Algo: physical.Default}
}

// udfTwin is the same operator without its column hint, built from the
// UDF the builder helper generated from the same spec. A source keeps its
// columns, and an operator without a hint is its own twin.
func udfTwin(lop *plan.Operator) *plan.Operator {
	if _, ok := lop.ColSort(); ok { // the FieldKey SortColumn derived
		return plan.NewBuilder("twin").Sort(nil, lop.Key, lop.Desc())
	}
	var fn any
	switch {
	case lop.ColPred() != nil:
		fn = lop.Filter()
	case lop.ColProject() != nil, lop.ColMap() != nil:
		fn = lop.Map()
	case lop.ColAgg() != nil:
		fn = lop.Reduce()
	case lop.ColGroup() != nil:
		fn = lop.Group()
	default:
		return lop
	}
	twin := plan.NewSynthetic(lop.Kind(), lop.Name(), fn)
	twin.Key, twin.Selectivity = lop.Key, lop.Selectivity
	return twin
}

// buildHinted builds the three hinted operators over one source and
// returns them (filter, project, aggregate).
func buildHinted(t *testing.T, op plan.CompareOp, operand data.Value) (*plan.Operator, *plan.Operator, *plan.Operator) {
	t.Helper()
	b := plan.NewBuilder("kernels")
	src := b.Source("s", plan.Collection(nil))
	f := b.FilterWhere(src, 0, op, operand)
	p := b.ProjectCols(f, 1, 0)
	a := b.AggregateCols(p, plan.AggMax, plan.AggSum)
	b.Collect(a)
	b.MustBuild()
	return f, p, a
}

// asRecords is a dataset's rows, as the row code takes them.
func asRecords(ds any) []data.Record {
	recs, err := rowsOf(context.Background(), ds)
	if err != nil {
		panic(err)
	}
	return recs
}

// encodeRecs is the byte-identity yardstick.
func encodeRecs(t *testing.T, recs []data.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := data.WriteBinary(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// execOp runs one operator outside an atom — forcing the pipeline a
// hinted filter or projection returns, as its consumer would — and turns
// a panic into an error so a UDF's index panic can be compared like any
// other failure.
func execOp(lop *plan.Operator, in any, algo physical.Algorithm) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	out, err = (&datasetOps{}).ExecOp(context.Background(), &physical.Operator{Logical: lop, Algo: algo}, []any{in})
	if p, ok := out.(*pipeline); ok && err == nil {
		out, err = p.force()
	}
	if c, ok := out.(counted); ok {
		out = c.recs // a UDF twin's forced rows
	}
	return out, err
}

// runBoth executes the hinted operator — over rows, the shape an
// operator of its own atom hands it, and over a batch, the shape an
// external input arrives in — and its UDF twin over the same rows, and
// asserts all three agree byte for byte, or fail with the same message.
// It returns the twin's output.
func runBoth(t *testing.T, lop *plan.Operator, recs []data.Record) []data.Record {
	t.Helper()
	return runBothAlgo(t, lop, recs, physical.Default)
}

// runBothAlgo is runBoth under an algorithm decision.
func runBothAlgo(t *testing.T, lop *plan.Operator, recs []data.Record, algo physical.Algorithm) []data.Record {
	t.Helper()
	want, wantErr := execOp(udfTwin(lop), data.CloneRecords(recs), algo)
	for name, in := range map[string]any{
		"rows":  data.CloneRecords(recs),
		"batch": batch.FromRecords(data.CloneRecords(recs)),
	} {
		got, gotErr := execOp(lop, in, algo)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("hinted over %s: error divergence: UDF %v, hinted %v", name, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("hinted over %s: error message divergence:\n  UDF    %q\n  hinted %q", name, wantErr, gotErr)
			}
			continue
		}
		if w, h := encodeRecs(t, want.([]data.Record)), encodeRecs(t, asRecords(got)); !bytes.Equal(w, h) {
			t.Fatalf("hinted over %s: output divergence:\n  UDF    %v\n  hinted %v", name, want, asRecords(got))
		}
	}
	if wantErr != nil {
		return nil
	}
	return want.([]data.Record)
}

func TestHintedFilterMatchesUDF(t *testing.T) {
	ints := []data.Record{
		data.NewRecord(data.Int(5), data.Str("a")),
		data.NewRecord(data.Int(-3), data.Str("b")),
		data.NewRecord(data.Null(), data.Str("c")),
		data.NewRecord(data.Int(7), data.Str("d")),
		data.NewRecord(data.Int(5), data.Str("e")),
	}
	floats := []data.Record{
		data.NewRecord(data.Float(1.5), data.Int(1)),
		data.NewRecord(data.Float(math.NaN()), data.Int(2)),
		data.NewRecord(data.Float(-0.0), data.Int(3)),
		data.NewRecord(data.Float(0.0), data.Int(4)),
		data.NewRecord(data.Float(math.Inf(-1)), data.Int(5)),
	}
	strs := []data.Record{
		data.NewRecord(data.Str("pear"), data.Int(1)),
		data.NewRecord(data.Str(""), data.Int(2)),
		data.NewRecord(data.Str("apple"), data.Int(3)),
		data.NewRecord(data.Null(), data.Int(4)),
	}
	mixed := []data.Record{
		data.NewRecord(data.Int(1), data.Int(1)),
		data.NewRecord(data.Str("x"), data.Int(2)),
		data.NewRecord(data.Float(2.5), data.Int(3)),
	}
	leadingNulls := []data.Record{
		data.NewRecord(data.Null(), data.Int(1)),
		data.NewRecord(data.Null(), data.Int(2)),
		data.NewRecord(data.Int(9), data.Int(3)),
	}
	ragged := []data.Record{
		data.NewRecord(data.Int(1), data.Int(1)),
		data.NewRecord(data.Int(9)),
		data.NewRecord(data.Int(2), data.Int(2), data.Int(2)),
	}
	ops := []plan.CompareOp{plan.Less, plan.LessEq, plan.Greater, plan.GreaterEq, plan.Eq, plan.NotEq}
	cases := []struct {
		name    string
		recs    []data.Record
		operand data.Value
	}{
		{"int", ints, data.Int(5)},
		{"float", floats, data.Float(0.0)},
		{"float-nan-operand", floats, data.Float(math.NaN())},
		{"string", strs, data.Str("mango")},
		{"mixed-any-column", mixed, data.Int(2)},
		{"cross-kind-operand", ints, data.Float(5)},
		{"leading-nulls", leadingNulls, data.Int(5)},
		{"one-row", ints[:1], data.Int(5)},
		{"ragged", ragged, data.Int(2)},
		{"empty", nil, data.Int(0)},
	}
	for _, tc := range cases {
		for _, cmp := range ops {
			t.Run(tc.name+"/"+cmp.String(), func(t *testing.T) {
				f, _, _ := buildHinted(t, cmp, tc.operand)
				runBoth(t, f, tc.recs)
			})
		}
	}
}

// TestHintedFieldOutsideInput pins the bad-index contract: a predicate
// field, projection index, group key or fold argument beyond the input's
// width fails exactly as
// the UDF does (Record.Field / Record.Project index panic), never as a
// kernel error of its own.
func TestHintedFieldOutsideInput(t *testing.T) {
	recs := []data.Record{
		data.NewRecord(data.Int(1), data.Str("a")),
		data.NewRecord(data.Int(2), data.Str("b")),
	}
	b := plan.NewBuilder("bad-index")
	src := b.Source("s", plan.Collection(nil))
	f := b.FilterWhere(src, 2, plan.Less, data.Int(5))
	p := b.ProjectCols(src, 0, 5)
	gk := b.GroupAggregate(src, []int{3}, plan.GroupCol{Fn: plan.GroupCountAll})
	ga := b.GroupAggregate(src, []int{0}, plan.GroupCol{Fn: plan.GroupSum, Field: 5})
	b.Collect(b.Union(b.Union(f, p), b.Union(gk, ga)))
	b.MustBuild()
	for _, lop := range []*plan.Operator{f, p, gk, ga} {
		if _, err := execOp(udfTwin(lop), recs, physical.Default); err == nil {
			t.Fatalf("%s: the UDF accepted an index outside the record", lop.Kind())
		}
		runBoth(t, lop, recs)
	}
}

func TestHintedProjectMatchesUDF(t *testing.T) {
	recs := []data.Record{
		data.NewRecord(data.Int(1), data.Str("a"), data.Bool(true)),
		data.NewRecord(data.Null(), data.Str("b"), data.Bool(false)),
	}
	b := plan.NewBuilder("proj")
	src := b.Source("s", plan.Collection(nil))
	p := b.ProjectCols(src, 2, 0, 2)
	b.Collect(p)
	b.MustBuild()
	out := runBoth(t, p, recs)
	if len(out) != 2 || out[0].Len() != 3 {
		t.Fatalf("unexpected projection shape: %v", out)
	}
	runBoth(t, p, nil)
	runBoth(t, p, recs[:1])
}

func TestHintedAggregateMatchesUDF(t *testing.T) {
	cases := []struct {
		name string
		recs []data.Record
		fns  []plan.AggFn
	}{
		{"ints", []data.Record{
			data.NewRecord(data.Int(3), data.Int(9)),
			data.NewRecord(data.Int(-5), data.Int(2)),
			data.NewRecord(data.Int(8), data.Int(2)),
		}, []plan.AggFn{plan.AggSum, plan.AggMin}},
		{"floats-with-nan", []data.Record{
			data.NewRecord(data.Float(1.5), data.Float(2)),
			data.NewRecord(data.Float(math.NaN()), data.Float(math.NaN())),
			data.NewRecord(data.Float(-3), data.Float(7)),
		}, []plan.AggFn{plan.AggMin, plan.AggMax}},
		{"nan-first", []data.Record{
			data.NewRecord(data.Float(math.NaN())),
			data.NewRecord(data.Float(1)),
			data.NewRecord(data.Float(2)),
		}, []plan.AggFn{plan.AggMax}},
		{"float-sum-order", []data.Record{
			data.NewRecord(data.Float(1e16)),
			data.NewRecord(data.Float(1)),
			data.NewRecord(data.Float(-1e16)),
			data.NewRecord(data.Float(1)),
		}, []plan.AggFn{plan.AggSum}},
		{"strings", []data.Record{
			data.NewRecord(data.Str("pear"), data.Str("pear")),
			data.NewRecord(data.Str("apple"), data.Str("quince")),
		}, []plan.AggFn{plan.AggMin, plan.AggMax}},
		{"first", []data.Record{
			data.NewRecord(data.Str("keep"), data.Int(1)),
			data.NewRecord(data.Str("drop"), data.Int(2)),
		}, []plan.AggFn{plan.AggFirst, plan.AggSum}},
		{"interior-nulls-min", []data.Record{
			data.NewRecord(data.Int(4)),
			data.NewRecord(data.Null()),
			data.NewRecord(data.Int(2)),
		}, []plan.AggFn{plan.AggMin}},
		{"mixed-kinds-max", []data.Record{
			data.NewRecord(data.Int(4)),
			data.NewRecord(data.Str("x")),
			data.NewRecord(data.Float(2.5)),
		}, []plan.AggFn{plan.AggMax}},
		{"empty", nil, []plan.AggFn{plan.AggSum}},
		{"single-row", []data.Record{
			data.NewRecord(data.Int(42)),
		}, []plan.AggFn{plan.AggSum}},
		{"ragged", []data.Record{
			data.NewRecord(data.Int(1)),
			data.NewRecord(data.Int(2), data.Int(3)),
		}, []plan.AggFn{plan.AggSum}},
		{"sum-null-errors", []data.Record{
			data.NewRecord(data.Int(1)),
			data.NewRecord(data.Null()),
		}, []plan.AggFn{plan.AggSum}},
		{"sum-string-errors", []data.Record{
			data.NewRecord(data.Str("a")),
			data.NewRecord(data.Str("b")),
		}, []plan.AggFn{plan.AggSum}},
		{"arity-mismatch-errors", []data.Record{
			data.NewRecord(data.Int(1), data.Int(2)),
			data.NewRecord(data.Int(3), data.Int(4)),
		}, []plan.AggFn{plan.AggSum}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := plan.NewBuilder("agg")
			src := b.Source("s", plan.Collection(nil))
			a := b.AggregateCols(src, tc.fns...)
			b.Collect(a)
			b.MustBuild()
			runBoth(t, a, tc.recs)
		})
	}
}

// countCalls is a hinted operator whose row UDF adds to calls, so a test can
// tell whether the row code ran.
func countCalls(calls *int, lop *plan.Operator) *plan.Operator {
	if f := lop.Filter(); f != nil {
		return lop.WithUDF(plan.FilterFunc(func(r data.Record) (bool, error) { *calls++; return f(r) }))
	}
	if f := lop.Map(); f != nil {
		return lop.WithUDF(plan.MapFunc(func(r data.Record) (data.Record, error) { *calls++; return f(r) }))
	}
	f := lop.Reduce()
	return lop.WithUDF(plan.ReduceFunc(func(a, b data.Record) (data.Record, error) { *calls++; return f(a, b) }))
}

// TestHintedKernelsActuallyVectorize guards against silent fallback: a
// hinted chain handed a batch or rows must never call its row UDFs, a
// filter that keeps every row and a projection must not copy a batch's
// columns, and only ragged input or a missing hint may reach the UDFs.
func TestHintedKernelsActuallyVectorize(t *testing.T) {
	recs := []data.Record{
		data.NewRecord(data.Int(1), data.Str("a")),
		data.NewRecord(data.Int(2), data.Str("b")),
	}
	ctx := context.Background()
	d := &datasetOps{}
	exec := func(lop *plan.Operator, in any) any {
		t.Helper()
		out, err := d.ExecOp(ctx, physOp(lop), []any{in})
		if err != nil {
			t.Fatalf("%s: %v", lop.Kind(), err)
		}
		return out
	}
	f, p, a := buildHinted(t, plan.Less, data.Int(10))
	calls := new(int)
	f, p, a = countCalls(calls, f), countCalls(calls, p), countCalls(calls, a)
	in := batch.FromRecords(recs)
	for name, src := range map[string]any{"batch": in, "rows": recs} {
		chain := exec(p, exec(f, src))
		if _, lazy := chain.(*pipeline); !lazy {
			t.Fatalf("filter → project over %s produced %T, want a lazy pipeline", name, chain)
		}
		sum := exec(a, chain).([]data.Record)
		if len(sum) != 1 || sum[0].Field(0).Str() != "b" || sum[0].Field(1).Int() != 3 {
			t.Errorf("aggregate over %s = %v", name, sum)
		}
		// The same chain to a row consumer and to a channel.
		out, err := exec(p, exec(f, src)).(*pipeline).force()
		if err != nil || len(asRecords(out)) != 2 {
			t.Errorf("forcing over %s = %v, %v", name, out, err)
		}
		if *calls != 0 {
			t.Fatalf("hinted chain over %s called its row UDFs %d times", name, *calls)
		}
	}
	// Zero-copy over a batch: an all-pass filter hands the source back, a
	// projection aliases its columns.
	if out, _ := exec(f, in).(*pipeline).force(); out != in {
		t.Error("all-pass filter should return the input batch unchanged")
	}
	out, _ := exec(p, exec(f, in)).(*pipeline).force()
	if pb := out.(*batch.Batch); &pb.Col(1).Int64s[0] != &in.Col(0).Int64s[0] {
		t.Error("projection copied column storage")
	}
	// An un-projected filter over rows hands the original records back.
	out, _ = exec(f, recs).(*pipeline).force()
	if rows := out.([]data.Record); len(rows) != 2 || &rows[0].Fields()[0] != &recs[0].Fields()[0] {
		t.Error("filter over rows should return the original records")
	}
	if *calls != 0 {
		t.Fatalf("hinted kernels called their row UDFs %d times", *calls)
	}
	// Ragged input has no column form, as rows or as a batch.
	ragged := []data.Record{data.NewRecord(data.Int(1)), data.NewRecord(data.Int(1), data.Int(2))}
	for _, in := range []any{ragged, batch.FromRows(ragged)} {
		before := *calls
		if _, err := exec(f, in).(*pipeline).force(); err != nil || *calls != before+len(ragged) {
			t.Errorf("ragged %T should run through the row UDF: %d calls, err %v", in, *calls-before, err)
		}
	}
	// Unhinted operators go to the row code.
	if _, handled, _ := d.execHinted(ctx, physOp(udfTwin(f)), []any{in}); handled {
		t.Error("unhinted filter should fall back to the row code")
	}
}

func TestSupportsBatch(t *testing.T) {
	f, p, a := buildHinted(t, plan.Less, data.Int(1))
	java := New()
	for _, lop := range []*plan.Operator{f, p, a} {
		if !java.SupportsBatch(physOp(lop)) {
			t.Errorf("a hinted %s must ask for batch input: the hint alone decides", lop.Kind())
		}
		if java.SupportsBatch(physOp(udfTwin(lop))) {
			t.Errorf("an unhinted %s must not be batch-capable", lop.Kind())
		}
	}
	b := plan.NewBuilder("plain")
	sink := b.Collect(b.Source("s", plan.Collection(nil)))
	b.MustBuild()
	if java.SupportsBatch(physOp(sink)) {
		t.Error("a sink passes a batch through but must not advertise the format")
	}
}

// inAtom turns a whole physical plan into one java atom.
func inAtom(pp *physical.Plan) *engine.TaskAtom {
	return &engine.TaskAtom{Kind: engine.AtomCompute, Platform: ID,
		Ops: pp.Ops, Exits: []*physical.Operator{pp.SinkOp}}
}

// inAtomChain is source → filter → filter → project → aggregate over
// five-column rows, hinted or as its UDF twin, which the plain builder
// calls make of the same specs.
func inAtomChain(recs []data.Record, hinted bool) func(*plan.Builder) {
	return func(b *plan.Builder) {
		src := b.Source("s", plan.Collection(recs))
		if hinted {
			f1 := b.FilterWhere(src, 3, plan.Less, data.Int(5))
			f2 := b.FilterWhere(f1, 0, plan.GreaterEq, data.Int(10))
			b.Collect(b.AggregateCols(b.ProjectCols(f2, 2, 0), plan.AggSum, plan.AggMax))
			return
		}
		f1 := b.Filter(src, (&plan.ColumnPredicate{Field: 3, Op: plan.Less, Operand: data.Int(5)}).FilterFunc())
		f2 := b.Filter(f1, (&plan.ColumnPredicate{Field: 0, Op: plan.GreaterEq, Operand: data.Int(10)}).FilterFunc())
		p := b.Map(f2, func(r data.Record) (data.Record, error) { return r.Project(2, 0), nil })
		b.Collect(b.Reduce(p, (&plan.ColumnAggregate{Fns: []plan.AggFn{plan.AggSum, plan.AggMax}}).ReduceFunc()))
	}
}

// TestInAtomChainPrunesAndMatchesUDF runs the chain as one atom — the
// shape Context.Execute produces on a pinned plan — and checks that the
// answer is the UDF twin's and that the pipeline the aggregate folds
// transposes only the three columns the chain reads.
func TestInAtomChainPrunesAndMatchesUDF(t *testing.T) {
	recs := make([]data.Record, 50)
	for i := range recs {
		recs[i] = data.NewRecord(data.Int(int64(i)), data.Str("pad"), data.Float(float64(i)/2), data.Int(int64(i%7)), data.Str("pad"))
	}
	got, _ := runPlanOn(t, New(), inAtomChain(recs, true))
	want, _ := runPlanOn(t, New(), inAtomChain(recs, false))
	if len(want) != 1 || !bytes.Equal(encodeRecs(t, got), encodeRecs(t, want)) {
		t.Fatalf("in-atom hinted chain %v diverges from its UDF twin %v", got, want)
	}

	b := plan.NewBuilder("chain")
	inAtomChain(recs, true)(b)
	hinted, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	d := &datasetOps{atom: inAtom(hinted)}
	var ds any = recs
	for _, op := range hinted.Ops[1:4] {
		if ds, err = d.ExecOp(context.Background(), op, []any{ds}); err != nil {
			t.Fatal(err)
		}
	}
	p, ok := ds.(*pipeline)
	if !ok {
		t.Fatalf("filter → filter → project produced %T, want a lazy pipeline", ds)
	}
	if reads, all := p.reads(nil, true); all || !slices.Equal(reads, []int{0, 2, 3}) {
		t.Errorf("the chain's read set is %v (all=%v), want [0 2 3]", reads, all)
	}
	// Without the projection a value consumer reads every column, and a
	// row consumer — handed the original records — only the filters'.
	p = asPipeline(context.Background(), recs)
	p.push(hinted.Ops[1].Logical)
	if reads, all := p.reads(nil, true); !all {
		t.Errorf("an un-projected filter's values read %v, want every column", reads)
	}
	if reads, all := p.reads(nil, false); all || !slices.Equal(reads, []int{3}) {
		t.Errorf("an un-projected filter's survivors read %v (all=%v), want [3]", reads, all)
	}
}

// TestColumnarSourceRowsOrColumns pins what decides the form a columnar
// source is read in: its batch, untouched, when every operator of the atom
// reading it is hinted; rows when one is not, or when the source leaves
// the atom itself. And a chain over the batch that ends at the sink comes
// out as rows without a row UDF called or a row form of the source made.
func TestColumnarSourceRowsOrColumns(t *testing.T) {
	recs := make([]data.Record, 50)
	for i := range recs {
		recs[i] = data.NewRecord(data.Int(int64(i)), data.Str("pad"))
	}
	cols := batch.FromRecords(recs)
	ctx := context.Background()
	for _, c := range []struct {
		name    string
		build   func(b *plan.Builder, src *plan.Operator)
		exit    bool // the source is an exit of the atom too
		columns bool
	}{
		{"hinted readers", func(b *plan.Builder, src *plan.Operator) {
			b.Collect(b.Union(b.FilterWhere(src, 0, plan.Less, data.Int(5)), b.ProjectCols(src, 1)))
		}, false, true},
		{"an un-hinted reader among them", func(b *plan.Builder, src *plan.Operator) {
			b.Collect(b.Union(b.FilterWhere(src, 0, plan.Less, data.Int(5)), b.Distinct(src)))
		}, false, false},
		{"read outside the atom", func(b *plan.Builder, src *plan.Operator) {
			b.Collect(b.FilterWhere(src, 0, plan.Less, data.Int(5)))
		}, true, false},
	} {
		b := plan.NewBuilder("source")
		c.build(b, b.SourceColumns("s", cols, nil))
		pp, err := physical.FromLogical(b.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		atom := inAtom(pp)
		if c.exit {
			atom.Exits = append(atom.Exits, pp.Ops[0])
		}
		out, err := (&datasetOps{atom: atom}).ExecOp(ctx, pp.Ops[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, rows := out.([]data.Record); c.columns && out != (atRest{cols}) || !c.columns && !rows {
			t.Errorf("%s: the source yields %T, want columns=%v", c.name, out, c.columns)
		}
	}

	made, calls := 0, new(int)
	b := plan.NewBuilder("t")
	src := b.SourceColumns("s", cols, func() ([]data.Record, error) { made++; return cols.ToRecords(), nil })
	filter := b.FilterWhere(src, 0, plan.GreaterEq, data.Int(45))
	b.Collect(filter)
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	pp.Ops[filter.ID()].Logical = countCalls(calls, filter)
	exits, _, err := New().ExecuteAtom(context.Background(), inAtom(pp), engine.AtomInputs{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := exits[0].AsCollection()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || !bytes.Equal(encodeRecs(t, got), encodeRecs(t, recs[45:])) {
		t.Errorf("filter over the columnar source to the sink = %v", got)
	}
	if made != 0 || *calls != 0 {
		t.Errorf("the chain made the source's rows %d times and called %d row UDFs, want neither", made, *calls)
	}
}
