package javaengine

import (
	"context"
	"fmt"

	"rheem/internal/core/algo"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// sorter is a column-keyed Sort's scratch: the survivors' keys and
// positions — in the source, or ^i for made[i] — in input order.
type sorter struct {
	keys algo.SortKeys
	pos  []int32
	idx  []int32  // the survivors in sorted order
	in   pipeline // the input, unless it is a pipeline already
	key  [1]int   // the forcing's output: the key column's id
}

// sortColumn is a Sort keyed by a declared column (plan.Operator.ColSort)
// over ds — a pipeline, columns at rest or rows — cut to its first limit
// records, all of them for a negative limit. The forcing hands it each
// window's survivors; it keeps their keys and positions, orders them, and
// makes only the records that leave, from where they stand: a rows input's
// own unless a stage projected them, else one slab. Computed columns live
// for their window, so a pipeline with column maps is made into rows
// first; a window without a column form hands over records, kept as made.
func sortColumn(ctx context.Context, ds any, lop *plan.Operator, limit int) ([]data.Record, error) {
	p, ok := ds.(*pipeline)
	if ok && !p.done && p.calc > 0 {
		recs, err := p.records()
		if err != nil {
			return nil, err
		}
		ds, ok = recs, false
	}
	s := scratches.Get()
	o, made := &s.sort, []data.Record(nil)
	if !ok || p.done {
		p = o.in.over(ctx, ds)
	}
	key, _ := lop.ColSort()
	o.key[0] = p.source(key)
	p.project(nil, o.key[0]) // a window too narrow for the key runs the row UDFs
	out := p.proj            // the input's columns; nil: the source's
	p.proj = o.key[:]
	err := p.run(s, true, func(w *win, sel []int32) error {
		col := w.out(p, 0)
		for _, i := range sel {
			o.keys.Add(col.Value(w.off, int(i)))
			o.pos = append(o.pos, int32(w.base)+i)
		}
		return nil
	}, func(recs []data.Record) error {
		for _, r := range recs {
			k, err := lop.Key(r)
			if err != nil {
				return fmt.Errorf("algo: sort key: %w", err)
			}
			o.keys.Add(k)
			o.pos, made = append(o.pos, ^int32(len(made))), append(made, r)
		}
		return nil
	})
	if err != nil {
		return nil, err // a helper may still be loading a window of o.in: the lease is dropped
	}
	o.idx, p.proj = o.keys.Order(o.idx, lop.Desc()), out
	if limit < 0 || limit > len(o.idx) {
		limit = len(o.idx)
	}
	own, width := out == nil && p.cols == nil, len(out) // own: the input's records leave
	if out == nil && p.cols != nil {
		width = p.cols.NumCols()
	}
	slab, recs := make([]data.Value, limit*width), make([]data.Record, limit)
	for k, e := range o.idx[:limit] {
		switch at := int(o.pos[e]); {
		case at < 0:
			recs[k] = made[^at]
		case own:
			recs[k] = p.rows[at]
		default:
			row := slab[k*width : (k+1)*width : (k+1)*width]
			for j := range row {
				if c := p.source(j); p.cols != nil {
					row[j] = p.cols.Col(c).Value(p.cols.Off(), at)
				} else {
					row[j] = p.rows[at].Field(c)
				}
			}
			recs[k] = data.NewRecord(row...)
		}
	}
	s.release()
	return recs, nil
}
