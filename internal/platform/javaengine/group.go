package javaengine

import (
	"fmt"
	"slices"
	"sort"

	"rheem/internal/core/algo"
	"rheem/internal/core/batch"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// grouper is the grouped consumer of a hinted pipeline, plan.
// ColumnGroupAggregate run vector-at-a-time, and its state: per window it
// numbers the surviving rows' groups in first-seen order and folds the
// argument columns into accumulators indexed by group number, never
// gathering a group's rows. There is one accumulator set for the whole
// input — no per-window partials to combine — so float sums add in input
// order across window boundaries, as the UDF twin adds them down a group.
type grouper struct {
	spec *plan.ColumnGroupAggregate // the keys and folds the consumer computes
	cols []int                      // by output column: its argument as a column of the pipeline's output

	// Groups are numbered by the key the derived KeyFunc gives their first
	// row: int keys and string keys (a multi-column composite is one) in a
	// Go map each while every key so far is of that kind — the other map is
	// empty — and the first of another — a float, a null — moves the groups,
	// in order, to the KeyTable.
	ints map[int64]int32
	strs map[string]int32
	any  *algo.KeyTable
	keys []data.Value // by group

	accs [][]plan.GroupState // by output column, by group
	gid  []int32             // the group of each surviving row of a window; at the end, the groups' order
	buf  []byte              // a composite key
}

// group forces the pipeline through the grouped aggregate: one record
// per group from one []data.Value slab, in first-seen order, or stably
// sorted by key — as algo.SortGroup orders groups — when sorted is set.
func (p *pipeline) group(lop *plan.Operator, sorted bool) ([]data.Record, error) {
	spec, s := lop.ColGroup(), scratches.Get() // the groups, and a serial forcing's windows
	g := &s.group
	g.spec = spec
	g.cols = slices.Grow(g.cols[:0], len(spec.Out))[:len(spec.Out)]
	g.accs = slices.Grow(g.accs[:0], len(spec.Out))[:len(spec.Out)]
	// The pipeline's output becomes the fields the spec names, keys first.
	need := append([]int{}, spec.Keys...)
	for j, oc := range spec.Out {
		if g.cols[j] = slices.Index(need, oc.Field); g.cols[j] < 0 && oc.Fn != plan.GroupCountAll {
			g.cols[j], need = len(need), append(need, oc.Field)
		}
	}
	p.project(need)
	err := p.run(s, true, func(w *win, sel []int32) error {
		g.columns(p, w, sel)
		return nil
	}, func(recs []data.Record) error {
		for _, r := range recs {
			k, err := lop.Key(r)
			if err != nil {
				return fmt.Errorf("algo: group key: %w", err)
			}
			id := g.add(k)
			g.grow()
			for j, oc := range spec.Out {
				oc.Fn.Add(&g.accs[j][id], oc.Arg(r))
			}
		}
		return nil
	})
	if err != nil || len(g.keys) == 0 {
		s.release()
		return nil, err
	}
	order := slices.Grow(g.gid[:0], len(g.keys))[:len(g.keys)]
	ascending(order)
	if sorted {
		sort.SliceStable(order, func(i, j int) bool { return data.Compare(g.keys[order[i]], g.keys[order[j]]) < 0 })
	}
	width := len(spec.Out)
	slab, out := make([]data.Value, len(order)*width), make([]data.Record, len(order))
	for r, id := range order {
		row := slab[r*width : (r+1)*width : (r+1)*width]
		for j, oc := range spec.Out {
			row[j] = oc.Fn.Result(g.accs[j][id])
		}
		out[r] = data.NewRecord(row...)
	}
	s.release()
	return out, nil
}

// add returns the group of key k, numbering it if it is new.
func (g *grouper) add(k data.Value) int32 {
	if len(g.spec.Keys) == 0 { // the global aggregate: one group, no table
		g.keys = append(g.keys[:0], k)
		return 0
	}
	if g.any == nil {
		switch {
		case k.Kind() == data.KindInt && len(g.strs) == 0:
			return lookup(g, &g.ints, k.Int(), k)
		case k.Kind() == data.KindString && len(g.ints) == 0:
			return lookup(g, &g.strs, k.Str(), k)
		}
		g.any = new(algo.KeyTable)
		for _, old := range g.keys {
			g.any.Add(old)
		}
	}
	id, _ := g.any.Add(k)
	g.keys = g.any.Keys()
	return int32(id)
}

// lookup numbers key v, whose payload is k, in the typed table m.
func lookup[K comparable](g *grouper, m *map[K]int32, k K, v data.Value) int32 {
	id, ok := (*m)[k]
	if !ok {
		if *m == nil {
			// Presized: a few dozen groups do not grow either step by step.
			*m, g.keys = make(map[K]int32, 32), slices.Grow(g.keys, 32)
		}
		id = int32(len(g.keys))
		(*m)[k], g.keys = id, append(g.keys, v)
	}
	return id
}

// number fills gid with the groups of a window's surviving rows: an all-int
// or all-string key column and a composite straight through their map.
func (g *grouper) number(p *pipeline, w *win, sel []int32) {
	g.gid = slices.Grow(g.gid[:0], len(sel))[:len(sel)]
	nk := len(g.spec.Keys)
	if nk == 0 {
		g.add(data.Int(0))
		clear(g.gid)
		return
	}
	col := w.out(p, 0)
	switch {
	case nk > 1:
		for k, i := range sel {
			g.buf = g.buf[:0]
			for c := 0; c < nk; c++ {
				g.buf = plan.AppendKey(g.buf, w.out(p, c).Value(w.off, int(i)))
			}
			id, ok := g.strs[string(g.buf)]
			if !ok {
				id = g.add(data.Str(string(g.buf)))
			}
			g.gid[k] = id
		}
	case col.Kind == batch.ColInt64 && col.Valid == nil && len(g.strs) == 0 && g.any == nil:
		for k, i := range sel {
			g.gid[k] = lookup(g, &g.ints, col.Int64s[i], data.Int(col.Int64s[i]))
		}
	case col.Kind == batch.ColString && col.Valid == nil && len(g.ints) == 0 && g.any == nil:
		for k, i := range sel {
			g.gid[k] = lookup(g, &g.strs, col.Strings[i], data.Str(col.Strings[i]))
		}
	default:
		for k, i := range sel {
			g.gid[k] = g.add(col.Value(w.off, int(i)))
		}
	}
}

// grow extends every accumulator to the groups numbered so far.
func (g *grouper) grow() {
	n := len(g.keys)
	for j, st := range g.accs {
		g.accs[j] = append(st, make([]plan.GroupState, n-len(st))...)
	}
}

// columns folds the surviving rows of a window: counts, and sums of int64
// and float64 columns without nulls, unboxed; the rest under GroupFn.Add.
func (g *grouper) columns(p *pipeline, w *win, sel []int32) {
	if len(sel) == 0 {
		return
	}
	g.number(p, w, sel)
	g.grow()
	for j, oc := range g.spec.Out {
		st, col := g.accs[j], (*batch.Column)(nil)
		if oc.Fn != plan.GroupCountAll {
			col = w.out(p, g.cols[j])
		}
		dense := col == nil || col.Kind != batch.ColAny && col.Valid == nil
		sums := oc.Fn == plan.GroupSum || oc.Fn == plan.GroupAvg
		switch {
		case col == nil, oc.Fn == plan.GroupCount && dense:
			for _, id := range g.gid {
				st[id].N++
			}
		case sums && dense && col.Kind == batch.ColInt64:
			sumInto(st, col.Int64s, sel, g.gid)
		case sums && dense && col.Kind == batch.ColFloat64:
			sumInto(st, col.Float64s, sel, g.gid)
		default:
			for k, i := range sel {
				oc.Fn.Add(&st[g.gid[k]], col.Value(w.off, int(i)))
			}
		}
	}
}

// sumInto adds and counts the selected values, as float64 like Value.Float.
func sumInto[T int64 | float64](st []plan.GroupState, vals []T, sel, gid []int32) {
	for k, i := range sel {
		s := &st[gid[k]]
		s.Sum += float64(vals[i])
		s.N++
	}
}
