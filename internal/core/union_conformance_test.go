// Conformance of Union inside an atom. The java engine hands a union's
// legs on unevaluated to an aggregate or grouped aggregate, which runs
// them leg after leg, and splices a union read by another union into it;
// every other reader has the union forced into rows. The reference is the
// UDF twin, whose union is the row concatenation every platform computes.

package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rheem/internal/core/engine"
	"rheem/internal/core/executor"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
)

// unionRows is long enough for a leg to cross three window boundaries and
// end in a ragged fourth window. The cases whose union ends in rows, which
// the suite sorts to compare, cross one.
const unionRows = 3*4096 + 17

// unionLegs returns three legs over src with the same (int, float) shape:
// a column map, a filter that drops the null values, and two of the
// source's own columns.
func unionLegs(b *plan.Builder, src *plan.Operator, columns bool) []*plan.Operator {
	var norm *plan.Operator
	if columns {
		norm = b.MapColumns(src, mapConfColumns["norm"])
	} else {
		norm = b.Map(src, mapConfRows["norm"])
	}
	return []*plan.Operator{b.ProjectCols(norm, 0, 1), nonNull(b, src), b.ProjectCols(src, 0, 3)}
}

// nonNull is the rows of src whose value is a number not below zero, as
// (aux int, value float).
func nonNull(b *plan.Builder, src *plan.Operator) *plan.Operator {
	return b.ProjectCols(b.FilterWhere(src, 1, plan.GreaterEq, data.Float(0)), 2, 1)
}

// leftDeep is the union of legs in order, as a chain of two-way unions.
func leftDeep(b *plan.Builder, legs ...*plan.Operator) *plan.Operator {
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
// and null keys too), with a leg that falls back to the row UDFs, read
// twice, of one input twice, and inside a loop body. columns builds the
// column map legs on MapColumns, otherwise on their hand-written twins.
func unionConfCases(columns bool) []inAtomCase {
	tag := func(r data.Record) (data.Record, error) { return r.Append(data.Str("udf")), nil }
	group := func(b *plan.Builder, in *plan.Operator) *plan.Operator {
		return b.GroupAggregate(in, []int{0}, plan.GroupCol{Fn: plan.GroupKey}, plan.GroupCol{Fn: plan.GroupCountAll},
			plan.GroupCol{Fn: plan.GroupSum, Field: 1}, plan.GroupCol{Fn: plan.GroupMax, Field: 1})
	}
	cases := []inAtomCase{
		{"fold", mapConfRecords(unionRows), func(b *plan.Builder, s *plan.Operator) {
			b.Collect(b.AggregateCols(leftDeep(b, unionLegs(b, s, columns)...), plan.AggFirst, plan.AggSum))
		}},
		{"right-deep-fold", mapConfRecords(unionRows), func(b *plan.Builder, s *plan.Operator) {
			l := unionLegs(b, s, columns)
			b.Collect(b.AggregateCols(b.Union(l[0], b.Union(l[1], l[2])), plan.AggMin, plan.AggMax))
		}},
		{"to-sink", mapConfRecords(4096 + 17), func(b *plan.Builder, s *plan.Operator) {
			b.Collect(leftDeep(b, unionLegs(b, s, columns)...))
		}},
		{"row-window-leg", raggedRecords(unionRows), func(b *plan.Builder, s *plan.Operator) {
			b.Collect(b.AggregateCols(leftDeep(b, nonNull(b, s), b.ProjectCols(s, 0, 3)), plan.AggFirst, plan.AggSum))
		}},
		{"read-twice", mapConfRecords(4096 + 17), func(b *plan.Builder, s *plan.Operator) {
			u := leftDeep(b, unionLegs(b, s, columns)...)
			b.Collect(b.Union(b.AggregateCols(u, plan.AggSum, plan.AggMax), b.Map(u, tag)))
		}},
		{"same-input-twice", mapConfRecords(unionRows), func(b *plan.Builder, s *plan.Operator) {
			x := nonNull(b, s)
			b.Collect(b.AggregateCols(b.Union(x, x), plan.AggSum, plan.AggMin))
		}},
		{"nan-null-keys", nanKeyRecords(unionRows), func(b *plan.Builder, s *plan.Operator) {
			legs := []*plan.Operator{b.FilterWhere(s, 1, plan.Less, data.Int(6)), b.ProjectCols(s, 0, 1), s}
			b.Collect(group(b, leftDeep(b, legs...)))
		}},
		{"sum-in-loop-body", []data.Record{data.NewRecord(data.Int(1))}, func(b *plan.Builder, src *plan.Operator) {
			// Each pass adds the ids below 30 of two body sources to the sum.
			bb := plan.NewBodyBuilder("body")
			ids := func(name string, salt int) *plan.Operator {
				return bb.ProjectCols(bb.FilterWhere(confSource(bb, name, confRecords(40, salt), columns), 0, plan.Less, data.Int(30)), 0)
			}
			bb.Collect(bb.AggregateCols(leftDeep(bb, bb.LoopInput("sum"), ids("ids", 0), ids("more", 3)), plan.AggSum))
			b.Collect(b.Repeat(src, 3, bb.MustBuild()))
		}},
	}
	for _, algo := range groupAlgos {
		cases = append(cases, inAtomCase{"group-" + string(algo), mapConfRecords(unionRows), func(b *plan.Builder, s *plan.Operator) {
			b.Collect(group(b, leftDeep(b, unionLegs(b, s, columns)...)))
		}})
	}
	return cases
}

// TestUnionConformance: every way a union is read gives, on every platform
// at GOMAXPROCS 1 and 4, hinted and as its UDF twin with hand-written row
// maps, the bytes relengine's row union (algo.Exec) gives the twin — from a
// source in the atom, as rows and at rest in columns, and fed from another
// platform (on the java engine a batch channel). An AggFirst or a float sum
// over a union depends on the legs' order.
func TestUnionConformance(t *testing.T) {
	twins := unionConfCases(false)
	for i, c := range unionConfCases(true) {
		t.Run(c.name, func(t *testing.T) {
			want, err := runInAtom(t, twins[i], relengine.ID, false, false)
			if err != nil {
				t.Fatalf("the UDF twin on relengine failed: %v", err)
			}
			fed := func(c inAtomCase) confCase {
				return confCase{name: c.name, recs: c.recs, loop: strings.HasSuffix(c.name, "-in-loop-body"),
					build: func(b *plan.Builder, s []*plan.Operator) { c.build(b, s[0]) }}
			}
			for _, target := range confPlatforms {
				for _, workers := range confWorkers {
					setWorkers(t, workers)
					for _, run := range []struct {
						c       inAtomCase
						hinted  bool
						columns bool
					}{{twins[i], false, false}, {c, true, false}, {c, true, true}} {
						if got, err := runInAtom(t, run.c, target, run.hinted, run.columns); err != nil || got != want {
							t.Errorf("on %s at GOMAXPROCS %d, hinted=%v columns=%v: diverges from the row union (%v)", target, workers, run.hinted, run.columns, err)
						}
					}
					if runConformance(t, fed(c), target, true) != want || runConformance(t, fed(twins[i]), target, false) != want {
						t.Errorf("on %s at GOMAXPROCS %d, fed from another platform: diverges from the row union", target, workers)
					}
				}
			}
		})
	}
}

// TestUnionAsAtomExit: a union whose reader runs on another platform
// leaves its atom as rows — the concatenation of its legs, in order: the
// rows, hinted and as its UDF twin at GOMAXPROCS 1 and 4, that the plan
// gives on relengine alone.
func TestUnionAsAtomExit(t *testing.T) {
	run := func(hinted bool, unionOn engine.PlatformID) string {
		b := plan.NewBuilder("union-exit")
		src := confSource(b, "src", mapConfRecords(unionRows), true)
		u := leftDeep(b, unionLegs(b, src, hinted)...)
		tagged := b.Map(u, func(r data.Record) (data.Record, error) { return r.Append(data.Str("rel")), nil })
		b.Collect(tagged)
		pp, err := physical.FromLogical(b.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		if !hinted {
			udfTwin(pp)
		}
		fa := map[int]engine.PlatformID{}
		for _, op := range pp.Ops {
			fa[op.ID] = unionOn
			if op.Logical == tagged || op.Kind() == plan.KindSink {
				fa[op.ID] = relengine.ID
			}
		}
		ep, err := optimizer.Optimize(pp, confRegistry(t), optimizer.Options{DisableRules: true, ForcedAssignments: fa})
		if err != nil {
			t.Fatal(err)
		}
		exits := 0
		for _, a := range ep.Atoms {
			for _, ex := range a.Exits {
				if ex.Kind() == plan.KindUnion {
					exits++
				}
			}
		}
		want := 1 // the union, from its java atom to the Map's
		if unionOn == relengine.ID {
			want = 0
		}
		if exits != want {
			t.Fatalf("the plan has %d unions leaving an atom, want %d:\n%v", exits, want, ep.Atoms)
		}
		res, err := executor.Run(ep, confRegistry(t), executor.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Records) // in order: a union's rows are its legs'
	}
	want := run(false, relengine.ID)
	for _, workers := range confWorkers {
		setWorkers(t, workers)
		for _, hinted := range []bool{false, true} {
			if run(hinted, javaengine.ID) != want {
				t.Errorf("at GOMAXPROCS %d, hinted=%v: the union leaving its java atom diverges from the row union", workers, hinted)
			}
		}
	}
}
