// Conformance of Union inside an atom. The java engine hands a union's
// legs on unevaluated to an aggregate or grouped aggregate, which runs
// them leg after leg, and splices a union read by another union into it;
// every other reader has the union forced into rows. The reference is the
// UDF twin, whose union is the row concatenation every platform computes.

package core

import (
	"math"
	"testing"

	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
)

// unionRows is long enough for a leg to cross three window boundaries and
// end in a ragged fourth window; the cases whose union ends in rows cross one.
const unionRows = 3*4096 + 17

// unionLegs returns three legs over src with the same (int, float) shape:
// a column map, a filter that drops the null values, and two of the
// source's own columns.
func unionLegs(b *builder, src *plan.Operator) []*plan.Operator {
	return []*plan.Operator{b.ProjectCols(b.mapConf(src, "norm"), 0, 1), nonNull(b, src), b.ProjectCols(src, 0, 3)}
}

// nonNull is src's rows whose value is neither null nor below zero, as (aux, value).
func nonNull(b *builder, src *plan.Operator) *plan.Operator {
	return b.ProjectCols(b.FilterWhere(src, 1, plan.GreaterEq, data.Float(0)), 2, 1)
}

// leftDeep is the union of legs in order, as a chain of two-way unions.
func leftDeep(b *builder, legs ...*plan.Operator) *plan.Operator {
	out := legs[0]
	for _, l := range legs[1:] {
		out = b.Union(out, l)
	}
	return out
}

// nanKeyRecords is n (key float, value int) rows whose keys repeat and
// hold a NaN every fifth row and a null every seventh.
func nanKeyRecords(n int) []data.Record {
	out := make([]data.Record, n)
	for i := range out {
		key := data.Float(float64(i%9) / 2)
		switch {
		case i%7 == 3:
			key = data.Null()
		case i%5 == 1:
			key = data.Float(math.NaN())
		}
		out[i] = data.NewRecord(key, data.Int(int64(i%11)))
	}
	return out
}

// raggedRecords is mapConfRecords(n) with one row in window 2 and one in
// the last window a field wider: those windows have no column form.
func raggedRecords(n int) []data.Record {
	recs := mapConfRecords(n)
	for _, i := range []int{4096 + 5, n - 3} {
		recs[i] = recs[i].Append(data.Str("extra"))
	}
	return recs
}

// unionConfCases are the ways a union is read: folded, grouped (over NaN
// and null keys too, under each grouping algorithm), with a leg that falls
// back to the row UDFs, read twice, of one input twice, and inside a loop
// body.
func unionConfCases() []bcase {
	tag := func(r data.Record) (data.Record, error) { return r.Append(data.Str("udf")), nil }
	group := func(b *builder, in *plan.Operator) *plan.Operator {
		return b.GroupAggregate(in, []int{0}, plan.GroupCol{Fn: plan.GroupKey}, plan.GroupCol{Fn: plan.GroupCountAll},
			plan.GroupCol{Fn: plan.GroupSum, Field: 1}, plan.GroupCol{Fn: plan.GroupMax, Field: 1})
	}
	cases := []bcase{
		one("fold", mapConfRecords(unionRows), func(b *builder, s *plan.Operator) {
			b.Collect(b.AggregateCols(leftDeep(b, unionLegs(b, s)...), plan.AggFirst, plan.AggSum))
		}),
		one("right-deep-fold", mapConfRecords(unionRows), func(b *builder, s *plan.Operator) {
			l := unionLegs(b, s)
			b.Collect(b.AggregateCols(b.Union(l[0], b.Union(l[1], l[2])), plan.AggMin, plan.AggMax))
		}),
		one("to-sink", mapConfRecords(4096+17), func(b *builder, s *plan.Operator) {
			b.Collect(leftDeep(b, unionLegs(b, s)...))
		}),
		one("row-window-leg", raggedRecords(unionRows), func(b *builder, s *plan.Operator) {
			b.Collect(b.AggregateCols(leftDeep(b, nonNull(b, s), b.ProjectCols(s, 0, 3)), plan.AggFirst, plan.AggSum))
		}),
		one("read-twice", mapConfRecords(4096+17), func(b *builder, s *plan.Operator) {
			u := leftDeep(b, unionLegs(b, s)...)
			b.Collect(b.Union(b.AggregateCols(u, plan.AggSum, plan.AggMax), b.Map(u, tag)))
		}),
		one("same-input-twice", mapConfRecords(unionRows), func(b *builder, s *plan.Operator) {
			x := nonNull(b, s)
			b.Collect(b.AggregateCols(b.Union(x, x), plan.AggSum, plan.AggMin))
		}),
		one("nan-null-keys", nanKeyRecords(unionRows), func(b *builder, s *plan.Operator) {
			legs := []*plan.Operator{b.FilterWhere(s, 1, plan.Less, data.Int(6)), b.ProjectCols(s, 0, 1), s}
			b.Collect(group(b, leftDeep(b, legs...)))
		}),
		one("sum-in-loop-body", []data.Record{data.NewRecord(data.Int(1))}, func(b *builder, src *plan.Operator) {
			// Each pass adds the ids below 30 of two body sources to the sum.
			bb := b.body("body")
			ids := func(name string, salt int) *plan.Operator {
				return bb.ProjectCols(bb.FilterWhere(bb.source(name, confRecords(40, salt)), 0, plan.Less, data.Int(30)), 0)
			}
			bb.Collect(bb.AggregateCols(leftDeep(bb, bb.LoopInput("sum"), ids("ids", 0), ids("more", 3)), plan.AggSum))
			b.Collect(b.Repeat(src, 3, bb.MustBuild()))
		}),
	}
	for _, algo := range []physical.Algorithm{physical.HashGroupBy, physical.SortGroupBy} {
		c := one("group-"+string(algo), mapConfRecords(unionRows), func(b *builder, s *plan.Operator) {
			b.Collect(group(b, leftDeep(b, unionLegs(b, s)...)))
		})
		c.algo = algo
		cases = append(cases, c)
	}
	return cases
}

// TestUnionConformance: every way a union is read gives, hinted and as
// its UDF twin, in its source's atom and fed, the bytes relengine's row
// union gives the twin at GOMAXPROCS 2, which no cell runs at. An AggFirst
// or a float sum over a union depends on the legs' order.
func TestUnionConformance(t *testing.T) {
	ref := cell{platform: relengine.ID, workers: 2, form: twin, src: rows, place: pinned}
	newBattery(t, ref, grid(confPlatforms, cell{form: twin, src: rows, place: pinned}, cell{form: hinted, src: rows, place: pinned},
		cell{form: hinted, src: columns, place: pinned}, cell{form: hinted, src: rows, place: fed}, cell{form: twin, src: rows, place: fed})).run(t, unionConfCases())
}

// TestUnionAsAtomExit: a union whose reader runs on another platform
// leaves its atom as rows — the concatenation of its legs, in order: the
// rows, hinted and as its UDF twin at GOMAXPROCS 1 and 4, that the plan
// gives on relengine alone.
func TestUnionAsAtomExit(t *testing.T) {
	c := one("union-exit", mapConfRecords(unionRows), func(b *builder, src *plan.Operator) {
		b.Collect(b.Map(leftDeep(b, unionLegs(b, src)...), func(r data.Record) (data.Record, error) { return r.Append(data.Str("rel")), nil }))
	})
	c.ordered = true // a union's rows are its legs'
	c.check = func(t *testing.T, x cell, o outcome) {
		exits := 0
		for _, a := range o.ep.Atoms {
			for _, ex := range a.Exits {
				if ex.Kind() == plan.KindUnion {
					exits++
				}
			}
		}
		if want := map[place]int{drained: 1, pinned: 0}[x.place]; exits != want { // the union, from its java atom to the Map's
			t.Fatalf("%v: the plan has %d unions leaving an atom, want %d:\n%v", x, exits, want, o.ep.Atoms)
		}
	}
	ref := cell{platform: relengine.ID, workers: 1, form: twin, place: pinned}
	newBattery(t, ref, grid([]engine.PlatformID{javaengine.ID}, cell{form: twin, src: columns, place: drained},
		cell{form: hinted, src: columns, place: drained})).check(t, c)
}
