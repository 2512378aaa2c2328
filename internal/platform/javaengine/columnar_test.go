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

// udfTwin is the same operator without its column hint: what is left is
// the UDF the builder helper generated from the same spec.
func udfTwin(lop *plan.Operator) *plan.Operator {
	twin := *lop
	twin.ColPred, twin.ColProject, twin.ColAgg = nil, nil, nil
	return &twin
}

// buildHinted builds the three hinted operators over one source and
// returns them (filter, project, aggregate).
func buildHinted(t *testing.T, op plan.CompareOp, operand data.Value) (*plan.Operator, *plan.Operator, *plan.Operator) {
	t.Helper()
	b := plan.NewBuilder("kernels")
	src := b.Source("s", plan.Collection(nil))
	f := b.FilterWhere(src, 0, op, operand)
	p := b.ProjectCols(f, 1, 0)
	a := b.AggregateCols(p, plan.AggSum, plan.AggMax)
	b.Collect(a)
	b.MustBuild()
	return f, p, a
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

// execOp runs one operator outside an atom, turning a panic into an
// error so a UDF's index panic can be compared like any other failure.
func execOp(lop *plan.Operator, in any) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return (&datasetOps{}).ExecOp(context.Background(), physOp(lop), []any{in})
}

// runBoth executes the hinted operator — over rows, the shape an
// operator of its own atom hands it, and over a batch, the shape an
// external input arrives in — and its UDF twin over the same rows, and
// asserts all three agree byte for byte, or fail with the same message.
// It returns the twin's output.
func runBoth(t *testing.T, lop *plan.Operator, recs []data.Record) []data.Record {
	t.Helper()
	want, wantErr := execOp(udfTwin(lop), data.CloneRecords(recs))
	for name, in := range map[string]any{
		"rows":  data.CloneRecords(recs),
		"batch": batch.FromRecords(data.CloneRecords(recs)),
	} {
		got, gotErr := execOp(lop, in)
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
// field or projection index beyond the input's width fails exactly as
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
	b.Collect(b.Union(f, p))
	b.MustBuild()
	for _, lop := range []*plan.Operator{f, p} {
		if _, err := execOp(udfTwin(lop), recs); err == nil {
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

// TestHintedKernelsActuallyVectorize guards against silent fallback:
// hinted operators must be handled by execColumnar whether they are
// handed a batch or rows, and only ragged input or a missing hint may
// send them to the row code.
func TestHintedKernelsActuallyVectorize(t *testing.T) {
	recs := []data.Record{
		data.NewRecord(data.Int(1), data.Str("a")),
		data.NewRecord(data.Int(2), data.Str("b")),
	}
	d := &datasetOps{}
	f, p, a := buildHinted(t, plan.Less, data.Int(10))
	in := batch.FromRecords(recs)
	out, handled, err := d.execColumnar(physOp(f), []any{in})
	if err != nil || !handled {
		t.Fatalf("filter not handled: handled=%v err=%v", handled, err)
	}
	fb, ok := out.(*batch.Batch)
	if !ok {
		t.Fatalf("filter output is %T, want *batch.Batch", out)
	}
	if fb != in {
		t.Error("all-pass filter should return the input batch unchanged")
	}
	out, handled, err = d.execColumnar(physOp(p), []any{fb})
	if err != nil || !handled {
		t.Fatalf("project not handled: handled=%v err=%v", handled, err)
	}
	pb := out.(*batch.Batch)
	// Zero-copy projection: column 1 of the projection aliases column 0
	// of the source batch.
	if &pb.Col(1).Int64s[0] != &in.Col(0).Int64s[0] {
		t.Error("projection copied column storage")
	}
	if _, handled, _ = d.execColumnar(physOp(a), []any{pb}); !handled {
		t.Fatal("aggregate not handled")
	}
	// Rows from inside the atom are transposed, not sent to the UDF.
	for _, lop := range []*plan.Operator{f, p} {
		out, handled, err := d.execColumnar(physOp(lop), []any{recs})
		if err != nil || !handled {
			t.Fatalf("%s over rows not handled: handled=%v err=%v", lop.Kind(), handled, err)
		}
		if _, ok := out.(*batch.Batch); !ok {
			t.Errorf("%s over rows produced %T, want *batch.Batch", lop.Kind(), out)
		}
	}
	// Ragged input has no column form, as rows or as a batch.
	ragged := []data.Record{data.NewRecord(data.Int(1)), data.NewRecord(data.Int(1), data.Int(2))}
	for _, in := range []any{ragged, batch.FromRows(ragged)} {
		if _, handled, _ = d.execColumnar(physOp(f), []any{in}); handled {
			t.Errorf("ragged %T should fall back to the row code", in)
		}
	}
	// Unhinted operators must fall back.
	if _, handled, _ = d.execColumnar(physOp(udfTwin(f)), []any{in}); handled {
		t.Error("unhinted filter should fall back to the row code")
	}
}

func TestSupportsBatch(t *testing.T) {
	f, p, a := buildHinted(t, plan.Less, data.Int(1))
	java := New(Config{})
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

// TestReadBelow pins the pruning analysis: the columns a hinted filter
// needs to transpose are its own plus what the hinted chain below it
// reads, and anything that is not such a chain reads everything.
func TestReadBelow(t *testing.T) {
	b := plan.NewBuilder("prune")
	src := b.Source("s", plan.Collection(nil))
	f1 := b.FilterWhere(src, 3, plan.Less, data.Int(1))
	f2 := b.FilterWhere(f1, 0, plan.Less, data.Int(1))
	p := b.ProjectCols(f2, 2, 2)
	toUDF := b.FilterWhere(src, 1, plan.Less, data.Int(1))
	udf := b.Map(toUDF, plan.Identity())
	forked := b.FilterWhere(src, 1, plan.Less, data.Int(1))
	b.Collect(b.Union(b.Union(p, udf), b.Union(b.ProjectCols(forked, 0), b.AggregateCols(forked, plan.AggSum))))
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	byLogical := map[*plan.Operator]*physical.Operator{}
	for _, op := range pp.Ops {
		byLogical[op.Logical] = op
	}
	d := &datasetOps{atom: inAtom(pp)}
	for _, tc := range []struct {
		name string
		op   *plan.Operator
		want []int
	}{
		{"filter above filter above projection", f1, []int{0, 2, 2}},
		{"filter above projection", f2, []int{2, 2}},
		{"filter above a UDF", toUDF, nil},
		{"filter read by a projection and an aggregate", forked, nil},
		{"the sink's input", byLogical[pp.SinkOp.Logical].Inputs[0].Logical, nil},
	} {
		if got := d.readBelow(byLogical[tc.op]); !slices.Equal(got, tc.want) {
			t.Errorf("%s: readBelow = %v, want %v", tc.name, got, tc.want)
		}
	}
	// An operator whose output leaves the atom is read by code the atom
	// cannot see.
	d.atom.Exits = append(d.atom.Exits, byLogical[f2])
	if got := d.readBelow(byLogical[f1]); got != nil {
		t.Errorf("filter above an exit: readBelow = %v, want nil", got)
	}
}

// TestInAtomChainPrunesAndMatchesUDF runs source → filter → filter →
// project → aggregate as one atom — the shape Context.Execute produces
// on a pinned plan — and checks the first filter transposed only the
// three columns the chain reads, and that the answer is the UDF twin's.
func TestInAtomChainPrunesAndMatchesUDF(t *testing.T) {
	recs := make([]data.Record, 50)
	for i := range recs {
		recs[i] = data.NewRecord(data.Int(int64(i)), data.Str("pad"), data.Float(float64(i)/2), data.Int(int64(i%7)), data.Str("pad"))
	}
	chain := func(hinted bool) func(*plan.Builder) {
		return func(b *plan.Builder) {
			src := b.Source("s", plan.Collection(recs))
			f1 := b.FilterWhere(src, 3, plan.Less, data.Int(5))
			f2 := b.FilterWhere(f1, 0, plan.GreaterEq, data.Int(10))
			p := b.ProjectCols(f2, 2, 0)
			a := b.AggregateCols(p, plan.AggSum, plan.AggMax)
			b.Collect(a)
			if !hinted {
				for _, op := range []*plan.Operator{f1, f2, p, a} {
					op.ColPred, op.ColProject, op.ColAgg = nil, nil, nil
				}
			}
		}
	}
	got, _ := runPlanOn(t, New(Config{}), chain(true))
	want, _ := runPlanOn(t, New(Config{}), chain(false))
	if len(want) != 1 || !bytes.Equal(encodeRecs(t, got), encodeRecs(t, want)) {
		t.Fatalf("in-atom hinted chain %v diverges from its UDF twin %v", got, want)
	}

	b := plan.NewBuilder("chain")
	chain(true)(b)
	hinted, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	d := &datasetOps{atom: inAtom(hinted)}
	out, handled, err := d.execColumnar(hinted.Ops[1], []any{recs})
	if err != nil || !handled {
		t.Fatalf("first filter over in-atom rows not handled: handled=%v err=%v", handled, err)
	}
	v, ok := out.(view)
	if !ok || !slices.Equal(v.src, []int{0, 2, 3}) || v.b.NumCols() != 3 {
		t.Fatalf("first filter produced %T %+v, want a view of columns [0 2 3]", out, out)
	}
}
