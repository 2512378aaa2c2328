// Vectorized execution operators: columnar kernels for the hot-path
// operator shapes (filter, projection, global aggregate). A hinted
// operator always runs here: over a batch.Batch handed in from outside
// the atom, or over the rows an operator of its own atom produced,
// transposed once on the way in. Each kernel is the column form of the
// same declarative spec that generated the operator's row UDF
// (plan.ColumnPredicate / ColProject / ColumnAggregate), so it computes
// what the UDF computes — the conformance battery checks byte-identity
// under the canonical encoding against the plan built from the UDFs.
//
// The typed loops below express every comparison through < and > only,
// exactly like plan.CompareValues, so NaN ordering ("keep-left")
// matches the UDFs bit for bit.

package javaengine

import (
	"cmp"
	"fmt"
	"slices"

	"rheem/internal/core/algo"
	"rheem/internal/core/batch"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// view is a columnar dataset inside an atom. A nil src is a whole
// batch. Otherwise b holds only the columns the rest of the atom reads
// of a wider dataset, and column j of b is that dataset's column
// src[j]; such a view is only ever handed to the hinted filters and
// projections readBelow found, never to the row code or a channel.
type view struct {
	b   *batch.Batch
	src []int
}

// pos returns where the dataset's column c sits in v.b, or -1.
func (v view) pos(c int) int {
	if v.src != nil {
		return slices.Index(v.src, c)
	}
	if c < 0 || c >= v.b.NumCols() {
		return -1
	}
	return c
}

// columns returns ds in column form; ok=false means it has none (ragged
// records, a row-backed batch). Rows are transposed here: whole, or —
// when reads lists every column anything will read of them and all of
// those exist — only the columns in reads.
func columns(ds any, reads []int) (v view, ok bool) {
	switch ds := ds.(type) {
	case view:
		return ds, true
	case *batch.Batch:
		return view{b: ds}, ds.Columnar()
	}
	recs := ds.([]data.Record)
	if len(recs) > 0 && len(reads) > 0 {
		src := slices.Clone(reads)
		slices.Sort(src)
		src = slices.Compact(src)
		if src[0] >= 0 && src[len(src)-1] < recs[0].Len() {
			b := batch.FromRecords(recs, src...)
			return view{b: b, src: src}, b.Columnar()
		}
	}
	b := batch.FromRecords(recs)
	return view{b: b}, b.Columnar()
}

// readBelow lists the columns of op's output that the rest of the atom
// reads, where that can be known: the output stays inside the atom and
// every consumer is a hinted projection, or a hinted filter whose own
// output is read that way. nil means all of them.
func (d *datasetOps) readBelow(op *physical.Operator) []int {
	if d.atom == nil || slices.Contains(d.atom.Exits, op) {
		return nil
	}
	var cols []int
	for _, c := range d.atom.Ops {
		if !slices.Contains(c.Inputs, op) {
			continue
		}
		switch lop := c.Logical; {
		case lop != nil && lop.Kind() == plan.KindMap && lop.ColProject != nil:
			cols = append(cols, lop.ColProject...)
		case lop != nil && lop.Kind() == plan.KindFilter && lop.ColPred != nil:
			below := d.readBelow(c)
			if below == nil {
				return nil
			}
			cols = append(append(cols, lop.ColPred.Field), below...)
		default:
			return nil
		}
	}
	return cols
}

// execColumnar runs op on a columnar kernel when it carries a column
// hint and its input has a column form. handled=false sends the
// operator to the row code, which stays the semantic ground truth: an
// un-hinted UDF, ragged input, or a field index outside the input
// (where the UDF's own panic is the contract).
func (d *datasetOps) execColumnar(op *physical.Operator, inputs []any) (out any, handled bool, err error) {
	lop := op.Logical
	if lop == nil {
		return nil, false, nil
	}
	switch lop.Kind() {
	case plan.KindFilter:
		if lop.ColPred == nil {
			return nil, false, nil
		}
		var reads []int
		if below := d.readBelow(op); below != nil {
			reads = append(below, lop.ColPred.Field)
		}
		v, ok := columns(inputs[0], reads)
		field := v.pos(lop.ColPred.Field)
		if !ok || field < 0 {
			return nil, false, nil
		}
		res := filterBatch(v.b, field, lop.ColPred)
		if v.src != nil {
			return view{b: res, src: v.src}, true, nil
		}
		return res, true, nil
	case plan.KindMap:
		if lop.ColProject == nil {
			return nil, false, nil
		}
		v, ok := columns(inputs[0], lop.ColProject)
		if !ok {
			return nil, false, nil
		}
		idx := make([]int, len(lop.ColProject))
		for i, c := range lop.ColProject {
			if idx[i] = v.pos(c); idx[i] < 0 {
				return nil, false, nil // row code reproduces Record.Project's panic
			}
		}
		return v.b.Project(idx...), true, nil
	case plan.KindReduce:
		if lop.ColAgg == nil {
			return nil, false, nil
		}
		v, ok := columns(inputs[0], nil)
		if !ok {
			return nil, false, nil
		}
		res, err := aggregateBatch(v.b, lop.ColAgg)
		return res, true, err
	default:
		return nil, false, nil
	}
}

// filterBatch evaluates the predicate over column field, collecting the
// indices of matching rows and gathering them into a fresh batch. When
// every row matches, the input batch is returned unchanged (zero-copy).
func filterBatch(b *batch.Batch, field int, p *plan.ColumnPredicate) *batch.Batch {
	n := b.Len()
	if n == 0 {
		return b
	}
	sel := selectRows(b, field, p)
	if len(sel) == n {
		return b
	}
	return gather(b, sel)
}

// selectRows returns the indices of rows matching the predicate, in
// order. Typed columns whose kind matches the operand take a tight
// unboxed loop; everything else goes through the generic value path,
// which applies the exact row-UDF semantics (plan.ColumnPredicate.Match).
func selectRows(b *batch.Batch, field int, p *plan.ColumnPredicate) []int32 {
	col, off := b.Col(field), b.Off()
	sel := make([]int32, 0, b.Len())
	switch {
	case col.Kind == batch.ColInt64 && p.Operand.Kind() == data.KindInt:
		return selectOrdered(sel, col.Int64s, p.Operand.Int(), p.Op, col.Valid, off)
	case col.Kind == batch.ColFloat64 && p.Operand.Kind() == data.KindFloat:
		return selectOrdered(sel, col.Float64s, p.Operand.Float(), p.Op, col.Valid, off)
	case col.Kind == batch.ColString && p.Operand.Kind() == data.KindString:
		return selectOrdered(sel, col.Strings, p.Operand.Str(), p.Op, col.Valid, off)
	}
	for i := 0; i < b.Len(); i++ {
		if p.Match(col.Value(off, i)) {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// selectOrdered is the typed selection loop: nulls never match.
func selectOrdered[T cmp.Ordered](sel []int32, vals []T, k T, op plan.CompareOp, valid *algo.Bitset, off int) []int32 {
	for i, v := range vals {
		if (valid == nil || valid.Get(off+i)) && cmpMatch(op, v < k, v > k) {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// cmpMatch decides a comparison from the two primitive orderings
// (less, greater) alone — ≤, ≥, == and != are derived by negation, the
// formulation that keeps NaN semantics identical to plan.CompareValues.
func cmpMatch(op plan.CompareOp, less, greater bool) bool {
	switch op {
	case plan.Less:
		return less
	case plan.LessEq:
		return !greater
	case plan.Greater:
		return greater
	case plan.GreaterEq:
		return !less
	case plan.Eq:
		return !less && !greater
	case plan.NotEq:
		return less || greater
	default:
		return false
	}
}

// take copies the selected elements of src, in selection order.
func take[T any](src []T, sel []int32) []T {
	out := make([]T, len(sel))
	for j, i := range sel {
		out[j] = src[i]
	}
	return out
}

// gather builds a new batch holding the selected rows of b, column by
// column. Validity bitmaps are rebuilt densely (offset zero).
func gather(b *batch.Batch, sel []int32) *batch.Batch {
	n := len(sel)
	off := b.Off()
	cols := make([]batch.Column, b.NumCols())
	for c := range cols {
		src := b.Col(c)
		dst := batch.Column{Kind: src.Kind}
		if src.Kind != batch.ColAny && src.Valid != nil {
			dst.Valid = algo.NewBitset(n)
			for j, i := range sel {
				if src.Valid.Get(off + int(i)) {
					dst.Valid.Set(j)
				}
			}
		}
		switch src.Kind {
		case batch.ColInt64:
			dst.Int64s = take(src.Int64s, sel)
		case batch.ColFloat64:
			dst.Float64s = take(src.Float64s, sel)
		case batch.ColString:
			dst.Strings = take(src.Strings, sel)
		case batch.ColBool:
			dst.Bools = take(src.Bools, sel)
		default:
			dst.Any = take(src.Any, sel)
		}
		cols[c] = dst
	}
	nb, err := batch.New(n, cols)
	if err != nil {
		panic(fmt.Sprintf("javaengine: gather built inconsistent batch: %v", err))
	}
	return nb
}

// aggregateBatch folds each column under its AggFn, mirroring
// algo.Reduce exactly: empty input yields empty output, a single row
// comes back unfolded, and a column-count mismatch surfaces the same
// arity error the row-path ReduceFunc raises.
func aggregateBatch(b *batch.Batch, agg *plan.ColumnAggregate) ([]data.Record, error) {
	n := b.Len()
	if n == 0 {
		return nil, nil
	}
	if n == 1 {
		return b.ToRecords(), nil
	}
	if b.NumCols() != len(agg.Fns) {
		// Same shape check (and message) the row fold applies per pair.
		return nil, fmt.Errorf("algo: reduce: plan: column aggregate over %d fields folding %d/%d-field records",
			len(agg.Fns), b.NumCols(), b.NumCols())
	}
	out := make([]data.Value, len(agg.Fns))
	for c, fn := range agg.Fns {
		v, err := foldColumn(b, c, fn)
		if err != nil {
			return nil, fmt.Errorf("algo: reduce: %w", err)
		}
		out[c] = v
	}
	return []data.Record{data.NewRecord(out...)}, nil
}

// foldColumn folds one column under fn. Typed all-valid columns take
// unboxed loops; anything else folds materialised values pairwise via
// AggFn.Fold, which is the row semantics verbatim (including the error
// on summing nulls or mixed kinds).
func foldColumn(b *batch.Batch, c int, fn plan.AggFn) (data.Value, error) {
	col, off := b.Col(c), b.Off()
	if fn == plan.AggFirst {
		return col.Value(off, 0), nil
	}
	if col.Valid == nil {
		switch col.Kind {
		case batch.ColInt64:
			return data.Int(foldOrdered(col.Int64s, fn)), nil
		case batch.ColFloat64:
			return data.Float(foldOrdered(col.Float64s, fn)), nil
		case batch.ColString:
			if fn == plan.AggSum {
				return data.Null(), fmt.Errorf("plan: cannot sum string and string values")
			}
			return data.Str(foldOrdered(col.Strings, fn)), nil
		}
	}
	// Generic pairwise fold over materialised values.
	acc := col.Value(off, 0)
	for i := 1; i < b.Len(); i++ {
		v, err := fn.Fold(acc, col.Value(off, i))
		if err != nil {
			return data.Null(), err
		}
		acc = v
	}
	return acc, nil
}

// foldOrdered is the typed fold, left to right like algo.Reduce so even
// float sums reproduce. CompareValues(v, acc) < 0 ⇔ v < acc and a NaN
// keeps the accumulator, so plain < and > match AggFn.Fold exactly.
func foldOrdered[T cmp.Ordered](vals []T, fn plan.AggFn) T {
	acc := vals[0]
	switch fn {
	case plan.AggSum:
		for _, v := range vals[1:] {
			acc += v
		}
	case plan.AggMin:
		for _, v := range vals[1:] {
			if v < acc {
				acc = v
			}
		}
	case plan.AggMax:
		for _, v := range vals[1:] {
			if v > acc {
				acc = v
			}
		}
	}
	return acc
}
