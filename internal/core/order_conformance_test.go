// One order, whichever plan. The optimizer prices "SortGroupBy vs
// HashGroupBy" (paper §3) by cost alone, which is sound only if the
// variants give one answer — and they do where data.Compare's zero is
// data.Equal and data.Hash agrees. The cases here are the keys that used
// to tell the variants apart: ints where float64 runs out of integers and
// floats with NaN among them. Every platform × algorithm × GOMAXPROCS ×
// hinted/UDF-twin variant must give the answer the order defines, and
// that answer is computed here in plain Go, without asking data.Compare.
package core

import (
	"cmp"
	"fmt"
	"math"
	"strings"
	"testing"

	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// edgeRecords are (key, payload) rows whose keys ascend as
// NaN = NaN < 1.0 < Int 2⁵³ < Float 2⁵³ < 2⁵³+1 = 2⁵³+1 < 2⁵³+2;
// the payloads are distinct bits, so a sum names its rows.
func edgeRecords() []data.Record {
	nan, big := math.NaN(), int64(1)<<53
	keys := []data.Value{
		data.Int(big + 1), data.Float(nan), data.Int(big), data.Float(1),
		data.Int(big + 2), data.Float(nan), data.Int(big + 1), data.Float(float64(big)),
	}
	recs := make([]data.Record, len(keys))
	for i, k := range keys {
		recs[i] = data.NewRecord(k, data.Int(1<<i))
	}
	return recs
}

// floatRecords are (key, payload) rows with float keys only, NaN three
// times, -0 and +0, and 2.5 twice; the payloads are distinct bits.
func floatRecords() []data.Record {
	nan := math.NaN()
	keys := []float64{2.5, nan, math.Copysign(0, -1), 1, nan, 0, 2.5, nan, -1}
	recs := make([]data.Record, len(keys))
	for i, k := range keys {
		recs[i] = data.NewRecord(data.Float(k), data.Int(1<<i))
	}
	return recs
}

// sameKey is key equality as the order defines it, spelled out for the
// two kinds the edge keys have: every NaN is one key, an int is no float.
func sameKey(a, b data.Value) bool {
	switch {
	case a.Kind() != b.Kind():
		return false
	case a.Kind() == data.KindInt:
		return a.Int() == b.Int()
	}
	x, y := a.Float(), b.Float()
	return x == y || x != x && y != y
}

// edgeGroups partitions recs by sameKey, groups and rows in input order.
func edgeGroups(recs []data.Record) [][]data.Record {
	var groups [][]data.Record
next:
	for _, r := range recs {
		for i, g := range groups {
			if sameKey(g[0].Field(0), r.Field(0)) {
				groups[i] = append(g, r)
				continue next
			}
		}
		groups = append(groups, []data.Record{r})
	}
	return groups
}

func TestOrderConformance(t *testing.T) {
	recs := edgeRecords()
	rekey := func(r data.Record) (data.Record, error) {
		return data.NewRecord(r.Field(0), data.Int(r.Field(1).Int()+1000)), nil
	}
	var reduced, grouped, distinct, joined []data.Record
	for _, g := range edgeGroups(recs) {
		sum, lo, hi := int64(0), g[0].Field(1), g[0].Field(1)
		for _, r := range g {
			sum += r.Field(1).Int()
			hi = r.Field(1) // payloads ascend with the input
			for _, rr := range g {
				right, _ := rekey(rr)
				joined = append(joined, data.Concat(r, right))
			}
		}
		reduced = append(reduced, data.NewRecord(g[0].Field(0), data.Int(sum)))
		grouped = append(grouped, data.NewRecord(g[0].Field(0), data.Int(int64(len(g))), data.Float(float64(sum)), lo, hi))
		distinct = append(distinct, data.NewRecord(g[0].Field(0)))
	}
	// A descending sort is the negated order, ties in input order: the NaN
	// pair, and 2⁵³+1 twice, keep their input order.
	sorted := []data.Record{recs[1], recs[5], recs[3], recs[2], recs[7], recs[0], recs[6], recs[4]}
	desc := []data.Record{recs[4], recs[0], recs[6], recs[7], recs[2], recs[3], recs[1], recs[5]}
	swapped := []data.Record{data.NewRecord(desc[0].Field(1), desc[0].Field(0)), data.NewRecord(desc[1].Field(1), desc[1].Field(0))} // as ProjectCols(…, 1, 0) makes them
	// Float keys alone: NaN = NaN = NaN < -1 < -0 = +0 < 1 < 2.5 = 2.5,
	// the zeros and the 2.5s tied.
	floats := floatRecords()
	floatAsc := []data.Record{floats[1], floats[4], floats[7], floats[8], floats[2], floats[5], floats[3], floats[0], floats[6]}
	floatDesc := []data.Record{floats[0], floats[6], floats[3], floats[2], floats[5], floats[8], floats[1], floats[4], floats[7]}

	// Fed from another platform; the column-keyed sorts in the source's atom
	// too, over its rows and over its columns at rest, which java reads in
	// place.
	fedCells := newBattery(t, cell{}, grid(confPlatforms, cell{form: hinted, src: rows, place: fed}, cell{form: twin, src: rows, place: fed}))
	pinnedCells := newBattery(t, cell{}, grid(confPlatforms, cell{form: hinted, src: rows, place: pinned}, cell{form: hinted, src: columns, place: pinned},
		cell{form: twin, src: rows, place: pinned}, cell{form: twin, src: columns, place: pinned}))
	none := []physical.Algorithm{""} // the optimizer's choice
	for _, tc := range []struct {
		name  string
		algos []physical.Algorithm // the alternatives the optimizer chooses between
		build func(b *builder, s *plan.Operator)
		want  []data.Record
		recs  []data.Record // the source's, when not the edge records
	}{
		// A sort's order shows in which rows a first-N sample keeps.
		{"sort-asc", none, func(b *builder, s *plan.Operator) { b.Collect(b.Sample(b.Sort(s, plan.FieldKey(0), false), 5)) }, sorted[:5], nil},
		{"sort-desc", none, func(b *builder, s *plan.Operator) { b.Collect(b.Sample(b.Sort(s, plan.FieldKey(0), true), 4)) }, sorted[4:], nil},
		// The column-keyed sort (javaengine orders a forcing's survivors),
		// each LIMIT cutting through a tie group, so the rows it keeps name
		// the order within the group too.
		{"column-sort-asc", none, func(b *builder, s *plan.Operator) { b.Collect(b.Sample(b.SortColumn(s, 0, false), 1)) }, sorted[:1], nil},
		{"column-sort-desc", none, func(b *builder, s *plan.Operator) { b.Collect(b.Sample(b.SortColumn(s, 0, true), 7)) }, desc[:7], nil},
		{"column-sort-projected", none, func(b *builder, s *plan.Operator) {
			b.Collect(b.Sample(b.SortColumn(b.ProjectCols(s, 1, 0), 1, true), 2))
		}, swapped, nil},
		{"column-sort-float-asc", none, func(b *builder, s *plan.Operator) { b.Collect(b.Sample(b.SortColumn(s, 0, false), 2)) }, floatAsc[:2], floats},
		{"column-sort-float-desc", none, func(b *builder, s *plan.Operator) {
			b.Collect(b.Sample(b.SortColumn(b.FilterWhere(s, 1, plan.NotEq, data.Int(1<<7)), 0, true), 7))
		}, floatDesc[:7], floats},
		{"column-sort-float-zeros", none, func(b *builder, s *plan.Operator) { b.Collect(b.Sample(b.SortColumn(s, 0, true), 4)) }, floatDesc[:4], floats},
		{"reduce-by-key", []physical.Algorithm{physical.HashGroupBy, physical.SortGroupBy}, func(b *builder, s *plan.Operator) {
			b.Collect(b.ReduceByKey(s, plan.FieldKey(0), sumReduce))
		}, reduced, nil},
		{"group-aggregate", []physical.Algorithm{physical.HashGroupBy, physical.SortGroupBy}, func(b *builder, s *plan.Operator) {
			b.Collect(b.GroupAggregate(s, []int{0}, plan.GroupCol{Fn: plan.GroupKey}, plan.GroupCol{Fn: plan.GroupCountAll},
				plan.GroupCol{Fn: plan.GroupSum, Field: 1}, plan.GroupCol{Fn: plan.GroupMin, Field: 1}, plan.GroupCol{Fn: plan.GroupMax, Field: 1}))
		}, grouped, nil},
		{"distinct", []physical.Algorithm{physical.HashDistinct, physical.SortDistinct}, func(b *builder, s *plan.Operator) {
			b.Collect(b.Distinct(b.ProjectCols(s, 0)))
		}, distinct, nil},
		{"join", []physical.Algorithm{physical.HashJoin, physical.SortMergeJoin}, func(b *builder, s *plan.Operator) {
			b.Collect(b.Join(s, b.Map(s, rekey), plan.FieldKey(0), plan.FieldKey(0)))
		}, joined, nil},
	} {
		if tc.recs == nil {
			tc.recs = recs
		}
		t.Run(tc.name, func(t *testing.T) {
			for _, algo := range tc.algos {
				c := one("order-"+tc.name, tc.recs, tc.build)
				c.algo, c.want = algo, tc.want
				fedCells.check(t, c)
				if strings.HasPrefix(tc.name, "column-") {
					pinnedCells.check(t, c)
				}
			}
		})
	}
}

// TestFilterWhereNaNConformance: a declarative filter over a float column
// holding NaNs, per comparison operator, against a number and against a
// NaN operand — the typed selection loop, the generic Match path it
// leaves a NaN operand to, and the derived row UDF must all keep the rows
// the order says: NaN equals NaN and is below every number. The NaN rows
// sit on both sides of javaengine's 4 096-row window boundary.
func TestFilterWhereNaNConformance(t *testing.T) {
	nan := math.NaN()
	recs := make([]data.Record, 4100)
	for i := range recs {
		x := float64(i % 11)
		if i == 0 || i == 4095 || i == 4096 || i == 4099 {
			x = nan
		}
		recs[i] = data.NewRecord(data.Float(x), data.Int(int64(i)))
	}
	// The UDF twin, the hinted plan, and the hinted plan over columns at
	// rest (read in place on java).
	cells := newBattery(t, cell{}, grid(confPlatforms, cell{form: twin, src: rows, place: pinned},
		cell{form: hinted, src: rows, place: pinned}, cell{form: hinted, src: columns, place: pinned}))
	for _, op := range []plan.CompareOp{plan.Less, plan.LessEq, plan.Greater, plan.GreaterEq, plan.Eq, plan.NotEq} {
		t.Run(op.String(), func(t *testing.T) {
			for _, operand := range []float64{5, nan} {
				var kept []data.Record
				for _, r := range recs {
					// cmp.Compare is the float order by definition; the
					// operator reads its sign as it reads any comparison's.
					if op.Eval(data.Int(int64(cmp.Compare(r.Field(0).Float(), operand))), data.Int(0)) {
						kept = append(kept, r)
					}
				}
				c := one(fmt.Sprintf("x%s%v", op, operand), recs, func(b *builder, s *plan.Operator) { b.Collect(b.FilterWhere(s, 0, op, data.Float(operand))) })
				c.want = kept
				cells.check(t, c)
			}
		})
	}
}
