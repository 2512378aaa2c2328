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
	sorted := []data.Record{recs[1], recs[5], recs[3], recs[2], recs[7], recs[0], recs[6], recs[4]}
	last := func(n int) []data.Record { // the n largest, as a descending sort leads with them
		return sorted[len(sorted)-n:]
	}

	groupAlgos := []physical.Algorithm{physical.HashGroupBy, physical.SortGroupBy}
	for _, tc := range []struct {
		name  string
		algos []physical.Algorithm // the alternatives the optimizer chooses between; "" leaves its choice
		build func(b *plan.Builder, s []*plan.Operator)
		want  []data.Record
	}{
		// A sort's order shows in which rows a first-N sample keeps.
		{"sort-asc", []physical.Algorithm{""}, func(b *plan.Builder, s []*plan.Operator) {
			b.Collect(b.Sample(b.Sort(s[0], plan.FieldKey(0), false), 5))
		}, sorted[:5]},
		{"sort-desc", []physical.Algorithm{""}, func(b *plan.Builder, s []*plan.Operator) {
			b.Collect(b.Sample(b.Sort(s[0], plan.FieldKey(0), true), 4))
		}, last(4)},
		{"reduce-by-key", groupAlgos, func(b *plan.Builder, s []*plan.Operator) {
			b.Collect(b.ReduceByKey(s[0], plan.FieldKey(0), sumReduce))
		}, reduced},
		{"group-aggregate", groupAlgos, func(b *plan.Builder, s []*plan.Operator) {
			b.Collect(b.GroupAggregate(s[0], []int{0}, plan.GroupCol{Fn: plan.GroupKey}, plan.GroupCol{Fn: plan.GroupCountAll},
				plan.GroupCol{Fn: plan.GroupSum, Field: 1}, plan.GroupCol{Fn: plan.GroupMin, Field: 1}, plan.GroupCol{Fn: plan.GroupMax, Field: 1}))
		}, grouped},
		{"distinct", []physical.Algorithm{physical.HashDistinct, physical.SortDistinct}, func(b *plan.Builder, s []*plan.Operator) {
			b.Collect(b.Distinct(b.ProjectCols(s[0], 0)))
		}, distinct},
		{"join", []physical.Algorithm{physical.HashJoin, physical.SortMergeJoin}, func(b *plan.Builder, s []*plan.Operator) {
			b.Collect(b.Join(s[0], b.Map(s[0], rekey), plan.FieldKey(0), plan.FieldKey(0)))
		}, joined},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := canonical(t, tc.want)
			for _, algo := range tc.algos {
				c := confCase{name: "order-" + tc.name, recs: recs, algo: algo, build: tc.build}
				for _, target := range confPlatforms {
					for _, workers := range confWorkers {
						setWorkers(t, workers)
						for _, hinted := range []bool{true, false} {
							if got := runConformance(t, c, target, hinted); got != want {
								t.Errorf("%s under %q on %s, GOMAXPROCS %d, hinted=%v: not the answer the order defines", tc.name, algo, target, workers, hinted)
							}
						}
					}
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
				want := canonical(t, kept)
				c := inAtomCase{fmt.Sprintf("x%s%v", op, operand), recs, func(b *plan.Builder, src *plan.Operator) {
					b.Collect(b.FilterWhere(src, 0, op, data.Float(operand)))
				}}
				for _, target := range confPlatforms {
					for _, workers := range confWorkers {
						setWorkers(t, workers)
						// The UDF twin, the hinted plan, and the hinted plan
						// over columns at rest (read in place on java).
						for _, v := range [][2]bool{{false, false}, {true, false}, {true, true}} {
							got, err := runInAtom(t, c, target, v[0], v[1])
							if err != nil || got != want {
								t.Errorf("%s on %s, GOMAXPROCS %d, hinted=%v, columns=%v: kept other rows than the order says (%v)", c.name, target, workers, v[0], v[1], err)
							}
						}
					}
				}
			}
		})
	}
}
