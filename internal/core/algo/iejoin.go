package algo

import (
	"fmt"
	"slices"
	"sort"

	"rheem/internal/core/batch"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// IEJoin implements the inequality join of Khayyat et al., "Lightning
// Fast and Space Efficient Inequality Joins" (PVLDB 2015) — the
// physical operator the paper adds to RHEEM to make the data cleaning
// application's inequality rules tractable (§5.1).
//
// It evaluates a conjunction of exactly two inequality conditions
//
//	l.A ⊙₁ r.A'  ∧  l.B ⊙₂ r.B'        ⊙ ∈ {<, ≤, >, ≥}
//
// over two inputs, emitting each qualifying (l, r) pair once. The
// classic structure is used: both inputs are merged and sorted twice
// (once per condition), a permutation array maps positions of the
// second sort order into the first, and a bit array of visited
// positions turns pair enumeration into word-wise bit scans. Time is
// O(n log n + output·scan) with tiny constants; the NestedLoopJoin
// baseline is Θ(|l|·|r|) predicate evaluations.
//
// For a single condition use IEJoinSingle. For more than two
// conditions, join on the first two and apply the rest as a residual
// predicate (the optimizer does exactly that).
func IEJoin(l, r []data.Record, c1, c2 plan.IECondition, emit func(l, r data.Record) error) error {
	n := len(l) + len(r)
	if n == 0 || len(l) == 0 || len(r) == 0 {
		return nil
	}

	// tuple is one element of the virtual union of both inputs.
	type tuple struct {
		rec  data.Record
		left bool
		x, y data.Value // condition-1 and condition-2 attributes
	}
	tuples := make([]tuple, 0, n)
	for _, rec := range l {
		tuples = append(tuples, tuple{rec: rec, left: true,
			x: rec.Field(c1.LeftField), y: rec.Field(c2.LeftField)})
	}
	for _, rec := range r {
		tuples = append(tuples, tuple{rec: rec, left: false,
			x: rec.Field(c1.RightField), y: rec.Field(c2.RightField)})
	}

	// L1: positions sorted ascending by x (condition-1 attribute).
	l1 := make([]int, n)
	for i := range l1 {
		l1[i] = i
	}
	slices.SortStableFunc(l1, func(a, b int) int { return data.Compare(tuples[a].x, tuples[b].x) })
	// posInL1[t] = position of tuple t in L1.
	posInL1 := make([]int, n)
	for pos, t := range l1 {
		posInL1[t] = pos
	}
	// xs[pos] = x value at L1 position pos, for boundary binary search.
	xs := make([]data.Value, n)
	for pos, t := range l1 {
		xs[pos] = tuples[t].x
	}

	// L2: positions sorted by y (condition-2 attribute). Processing
	// order depends on ⊙₂'s direction: for > / ≥ the visited set must
	// hold smaller-y tuples, so we ascend; for < / ≤ we descend.
	l2 := make([]int, n)
	for i := range l2 {
		l2[i] = i
	}
	ascending := c2.Op == plan.Greater || c2.Op == plan.GreaterEq
	slices.SortStableFunc(l2, func(a, b int) int {
		if ascending {
			return data.Compare(tuples[a].y, tuples[b].y)
		}
		return -data.Compare(tuples[a].y, tuples[b].y)
	})

	visited := batch.NewBitset(n)
	strict2 := c2.Op == plan.Greater || c2.Op == plan.Less

	// lowerBound returns the first L1 position with x >= v; upperBound
	// the first with x > v.
	lowerBound := func(v data.Value) int {
		return sort.Search(n, func(i int) bool { return data.Compare(xs[i], v) >= 0 })
	}
	upperBound := func(v data.Value) int {
		return sort.Search(n, func(i int) bool { return data.Compare(xs[i], v) > 0 })
	}

	emitFor := func(t int) error {
		tup := tuples[t]
		if !tup.left {
			return nil // only left tuples drive emission
		}
		var from, to int
		switch c1.Op {
		case plan.Less: // l.x < r.x: visited positions with x strictly greater
			from, to = upperBound(tup.x), n
		case plan.LessEq:
			from, to = lowerBound(tup.x), n
		case plan.Greater: // l.x > r.x: visited positions with x strictly smaller
			from, to = 0, lowerBound(tup.x)
		case plan.GreaterEq:
			from, to = 0, upperBound(tup.x)
		default:
			return fmt.Errorf("algo: IEJoin unsupported op %v", c1.Op)
		}
		return visited.ScanRange(from, to, func(pos int) error {
			other := tuples[l1[pos]]
			return emit(tup.rec, other.rec)
		})
	}

	// Process L2 in equal-y groups. Only right tuples are marked (they
	// are the join partners); only left tuples emit. For a strict ⊙₂
	// the current group's right tuples must not be visible to its own
	// left tuples, so marking happens after emission; for a non-strict
	// ⊙₂, before.
	for i := 0; i < n; {
		j := i
		for j < n && data.Compare(tuples[l2[i]].y, tuples[l2[j]].y) == 0 {
			j++
		}
		group := l2[i:j]
		if !strict2 {
			for _, t := range group {
				if !tuples[t].left {
					visited.Set(posInL1[t])
				}
			}
		}
		for _, t := range group {
			if err := emitFor(t); err != nil {
				return err
			}
		}
		if strict2 {
			for _, t := range group {
				if !tuples[t].left {
					visited.Set(posInL1[t])
				}
			}
		}
		i = j
	}
	return nil
}

// IEJoinSingle evaluates a single inequality condition l.A ⊙ r.A' by
// sorting the right input and emitting, for each left record, the
// qualifying sorted range. Output pairs are emitted in left-input
// order, right side in ascending attribute order.
func IEJoinSingle(l, r []data.Record, c plan.IECondition, emit func(l, r data.Record) error) error {
	if len(l) == 0 || len(r) == 0 {
		return nil
	}
	sorted := make([]data.Record, len(r))
	copy(sorted, r)
	slices.SortStableFunc(sorted, func(a, b data.Record) int {
		return data.Compare(a.Field(c.RightField), b.Field(c.RightField))
	})
	vals := make([]data.Value, len(sorted))
	for i, rec := range sorted {
		vals[i] = rec.Field(c.RightField)
	}
	lowerBound := func(v data.Value) int {
		return sort.Search(len(vals), func(i int) bool { return data.Compare(vals[i], v) >= 0 })
	}
	upperBound := func(v data.Value) int {
		return sort.Search(len(vals), func(i int) bool { return data.Compare(vals[i], v) > 0 })
	}
	for _, lr := range l {
		v := lr.Field(c.LeftField)
		var from, to int
		switch c.Op {
		case plan.Less:
			from, to = upperBound(v), len(sorted)
		case plan.LessEq:
			from, to = lowerBound(v), len(sorted)
		case plan.Greater:
			from, to = 0, lowerBound(v)
		case plan.GreaterEq:
			from, to = 0, upperBound(v)
		default:
			return fmt.Errorf("algo: IEJoinSingle unsupported op %v", c.Op)
		}
		for i := from; i < to; i++ {
			if err := emit(lr, sorted[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// IEJoinRecords runs IEJoin and materialises Concat(l, r) outputs,
// applying the optional residual predicate. It is the convenience form
// execution operators use.
func IEJoinRecords(l, r []data.Record, conds []plan.IECondition, residual plan.PredFunc) ([]data.Record, error) {
	var out []data.Record
	emit := func(lr, rr data.Record) error {
		if residual != nil {
			ok, err := residual(lr, rr)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		out = append(out, data.Concat(lr, rr))
		return nil
	}
	switch len(conds) {
	case 0:
		return nil, fmt.Errorf("algo: IEJoinRecords needs at least one condition")
	case 1:
		if err := IEJoinSingle(l, r, conds[0], emit); err != nil {
			return nil, err
		}
	default:
		// Conditions beyond the first two become part of the residual.
		res := residual
		extra := conds[2:]
		if len(extra) > 0 {
			res = func(lr, rr data.Record) (bool, error) {
				for _, c := range extra {
					if !c.Op.Eval(lr.Field(c.LeftField), rr.Field(c.RightField)) {
						return false, nil
					}
				}
				if residual != nil {
					return residual(lr, rr)
				}
				return true, nil
			}
		}
		emit2 := func(lr, rr data.Record) error {
			if res != nil {
				ok, err := res(lr, rr)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			out = append(out, data.Concat(lr, rr))
			return nil
		}
		if err := IEJoin(l, r, conds[0], conds[1], emit2); err != nil {
			return nil, err
		}
	}
	return out, nil
}
