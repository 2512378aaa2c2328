package algo

import (
	"fmt"

	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// Exec is what the physical operator op yields over driver-resident
// rows, whichever platform hosts it: l is its input (the left one of a
// binary operator), r the right input or nil. The algorithm is the one
// the optimizer wrote into op.Algo. Platforms decide where the rows live
// and what moving them costs — a table, a partition after a shuffle —
// and call this for the rows
// themselves, so an operator's semantics have one definition.
//
// Five kinds have no row form and are an error here: a platform runs its
// own Source and Sink, and the executor drives Repeat, DoWhile and
// LoopInput. The result may alias l (Sample is a prefix of it).
func Exec(op *physical.Operator, l, r []data.Record) ([]data.Record, error) {
	lop := op.Logical
	switch lop.Kind() {
	case plan.KindMap:
		return MapRows(make([]data.Record, 0, len(l)), l, lop.Map())
	case plan.KindFlatMap:
		var out []data.Record
		fn := lop.FlatMap()
		for _, rec := range l {
			nrs, err := fn(rec)
			if err != nil {
				return nil, err
			}
			out = append(out, nrs...)
		}
		return out, nil
	case plan.KindFilter:
		return FilterRows(make([]data.Record, 0, len(l)), l, lop.Filter())
	case plan.KindGroupBy:
		group := HashGroup
		if op.Algo == physical.SortGroupBy {
			group = SortGroup
		}
		groups, err := group(l, lop.Key)
		if err != nil {
			return nil, err
		}
		var out []data.Record
		fn := lop.Group()
		for _, g := range groups {
			res, err := fn(g.Key, g.Records)
			if err != nil {
				return nil, err
			}
			out = append(out, res...)
		}
		return out, nil
	case plan.KindReduceByKey:
		return ReduceByKey(l, lop.Key, lop.Reduce(), op.Algo == physical.SortGroupBy)
	case plan.KindReduce:
		return Reduce(l, lop.Reduce())
	case plan.KindSort:
		return SortBy(l, lop.Key, lop.Desc())
	case plan.KindDistinct:
		if op.Algo == physical.SortDistinct {
			var err error
			if l, err = SortBy(l, plan.RecordKey(), false); err != nil {
				return nil, err
			}
		}
		return Distinct(l), nil
	case plan.KindUnion:
		out := make([]data.Record, 0, len(l)+len(r))
		return append(append(out, l...), r...), nil
	case plan.KindJoin:
		if op.Algo == physical.SortMergeJoin {
			return SortMergeJoin(l, r, lop.Key, lop.RightKey())
		}
		return HashJoin(l, r, lop.Key, lop.RightKey())
	case plan.KindThetaJoin:
		if op.Algo == physical.IEJoin && len(lop.Conditions()) > 0 {
			return IEJoinRecords(l, r, lop.Conditions(), lop.Pred())
		}
		return NestedLoopJoin(l, r, thetaPred(lop))
	case plan.KindCartesian:
		return Cartesian(l, r), nil
	case plan.KindCount:
		return []data.Record{data.NewRecord(data.Int(int64(len(l))))}, nil
	case plan.KindSample:
		return l[:min(len(l), lop.N())], nil
	}
	return nil, fmt.Errorf("algo: %s has no row form: its platform or the executor runs it", lop.Kind())
}

// MapRows appends f of every record to dst, which may be recs[:0].
func MapRows(dst, recs []data.Record, f plan.MapFunc) ([]data.Record, error) {
	for _, r := range recs {
		nr, err := f(r)
		if err != nil {
			return nil, err
		}
		dst = append(dst, nr)
	}
	return dst, nil
}

// FilterRows appends the records f keeps to dst, which may be recs[:0].
func FilterRows(dst, recs []data.Record, f plan.FilterFunc) ([]data.Record, error) {
	for _, r := range recs {
		if ok, err := f(r); err != nil {
			return nil, err
		} else if ok {
			dst = append(dst, r)
		}
	}
	return dst, nil
}

// thetaPred is a theta join's whole predicate for the nested loop: the
// declarative conditions first, then the residual predicate if any.
func thetaPred(lop *plan.Operator) plan.PredFunc {
	conds, residual := lop.Conditions(), lop.Pred()
	return func(l, r data.Record) (bool, error) {
		for _, c := range conds {
			if !c.Op.Eval(l.Field(c.LeftField), r.Field(c.RightField)) {
				return false, nil
			}
		}
		if residual != nil {
			return residual(l, r)
		}
		return true, nil
	}
}
