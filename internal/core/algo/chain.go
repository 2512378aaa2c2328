package algo

import (
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// Narrow reports whether lop is a Map, Filter or FlatMap: an operator
// each of whose outputs comes from one input record, so a platform may
// run a run of them as one pass over the rows (Chain).
func Narrow(lop *plan.Operator) bool {
	switch lop.Kind() {
	case plan.KindMap, plan.KindFilter, plan.KindFlatMap:
		return true
	}
	return false
}

// Chain is a run of narrow operators, the first applied first, fused:
// it runs record by record, each input record going through every
// operator before the next is read, and hands each output straight to
// its consumer — which may count the output's Bytes in the same loop
// (Append). Nothing is materialised between the operators. The outputs
// and their order are those of applying Exec one operator at a time; a
// failure stops the chain, and the one returned is met by the first
// record in input order that fails anywhere along it. The empty chain
// hands its input on.
type Chain []*plan.Operator

// Then is c followed by lop. It never writes to c's storage, so a
// chain can be extended by several readers.
func (c Chain) Then(lop *plan.Operator) Chain {
	return append(c[:len(c):len(c)], lop)
}

// each runs recs through the chain and hands every output to emit, in
// order.
func (c Chain) each(recs []data.Record, emit func(data.Record) error) error {
	for _, r := range recs {
		if err := c.push(0, r, emit); err != nil {
			return err
		}
	}
	return nil
}

// push runs r through the chain from operator i on.
func (c Chain) push(i int, r data.Record, emit func(data.Record) error) error {
	for ; i < len(c); i++ {
		switch op := c[i]; op.Kind() {
		case plan.KindMap:
			var err error
			if r, err = op.Map(r); err != nil {
				return err
			}
		case plan.KindFilter:
			if ok, err := op.Filter(r); err != nil || !ok {
				return err
			}
		default: // plan.KindFlatMap
			outs, err := op.FlatMap(r)
			if err != nil {
				return err
			}
			for _, o := range outs {
				if err := c.push(i+1, o, emit); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return emit(r)
}

// Append appends the chain's outputs over recs to dst and returns it,
// with the sum of the outputs' Bytes when count is set, counted as each
// is appended. A chain without a FlatMap makes at most one output a
// record, so dst with room for len(recs) more never grows.
func (c Chain) Append(dst, recs []data.Record, count bool) ([]data.Record, int64, error) {
	var bytes int64
	err := c.each(recs, func(r data.Record) error {
		if count {
			bytes += int64(r.Bytes())
		}
		dst = append(dst, r)
		return nil
	})
	return dst, bytes, err
}

// Records is Append into a slice of the outputs' own: recs itself for
// the empty chain.
func (c Chain) Records(recs []data.Record, count bool) ([]data.Record, int64, error) {
	if len(c) == 0 {
		if count {
			return recs, data.TotalBytes(recs), nil
		}
		return recs, 0, nil
	}
	var dst []data.Record
	if !c.Expands() {
		dst = make([]data.Record, 0, len(recs))
	}
	out, bytes, err := c.Append(dst, recs, count)
	if err != nil {
		return nil, 0, err
	}
	return out, bytes, nil
}

// Expands reports whether the chain may make more outputs than it reads
// records: whether it holds a FlatMap.
func (c Chain) Expands() bool {
	for _, op := range c {
		if op.Kind() == plan.KindFlatMap {
			return true
		}
	}
	return false
}

// ExecChain is Exec(op, x, r), where x is c's output over l. An operator
// that folds its input a record at a time — ReduceByKey, Reduce — takes
// c's outputs as they come, so they are never gathered; any other is
// handed them gathered once.
func ExecChain(op *physical.Operator, c Chain, l, r []data.Record) ([]data.Record, error) {
	if len(c) == 0 {
		return Exec(op, l, r)
	}
	switch op.Kind() {
	case plan.KindReduceByKey, plan.KindReduce:
		f := newFold(op)
		if err := c.each(l, f.add); err != nil {
			return nil, err
		}
		return f.result(), nil
	}
	l, _, err := c.Records(l, false)
	if err != nil {
		return nil, err
	}
	return Exec(op, l, r)
}
