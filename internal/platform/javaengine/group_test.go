package javaengine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// everyFold is every grouped fold over field arg, after the key column.
func everyFold(key, arg int) []plan.GroupCol {
	return []plan.GroupCol{
		{Fn: plan.GroupKey, Field: key}, {Fn: plan.GroupCountAll}, {Fn: plan.GroupCount, Field: arg},
		{Fn: plan.GroupSum, Field: arg}, {Fn: plan.GroupAvg, Field: arg}, {Fn: plan.GroupMin, Field: arg}, {Fn: plan.GroupMax, Field: arg},
	}
}

// TestHintedGroupMatchesUDF runs the grouped consumer against the
// KeyFunc/GroupFunc derived from the same spec — over rows and over a
// batch, hash-grouped (first-seen order) and sort-grouped (stable key
// order): same records, same order, byte for byte.
func TestHintedGroupMatchesUDF(t *testing.T) {
	nan, negZero, big := math.NaN(), math.Copysign(0, -1), int64(1)<<53
	rec := data.NewRecord
	cases := []struct {
		name string
		recs []data.Record
		keys []int
		out  []plan.GroupCol
	}{
		{name: "int-key", recs: []data.Record{
			rec(data.Int(7), data.Float(1.5)), rec(data.Int(-2), data.Float(4)), rec(data.Int(7), data.Null()),
			rec(data.Int(3), data.Float(-1)), rec(data.Int(-2), data.Float(0.25)), rec(data.Int(7), data.Float(8)),
		}, keys: []int{0}, out: everyFold(0, 1)},
		{name: "string-key", recs: []data.Record{
			rec(data.Str("pear"), data.Int(3)), rec(data.Str(""), data.Int(9)), rec(data.Str("apple"), data.Int(-4)),
			rec(data.Str("pear"), data.Int(5)), rec(data.Str(""), data.Null()),
		}, keys: []int{0}, out: everyFold(0, 1)},
		{name: "two-keys", recs: []data.Record{
			rec(data.Int(1), data.Str("bc"), data.Int(1)), rec(data.Int(2), data.Str("a"), data.Int(2)),
			rec(data.Int(1), data.Str("bc"), data.Int(4)), rec(data.Int(1), data.Null(), data.Int(8)),
			rec(data.Null(), data.Str("bc"), data.Int(16)), rec(data.Int(1), data.Null(), data.Int(32)),
		}, keys: []int{0, 1}, out: append(everyFold(1, 2), plan.GroupCol{Fn: plan.GroupKey, Field: 0})},
		{name: "zero-keys", recs: []data.Record{
			rec(data.Int(4), data.Float(2)), rec(data.Null(), data.Float(3)), rec(data.Int(-1), data.Float(5)),
		}, out: everyFold(1, 0)[1:]},
		{name: "count-star-alone", recs: []data.Record{rec(data.Int(4)), rec(data.Null()), rec(data.Int(4))},
			out: []plan.GroupCol{{Fn: plan.GroupCountAll}}},
		{name: "empty-input", keys: []int{0}, out: everyFold(0, 1)},
		{name: "empty-input-zero-keys", out: everyFold(0, 0)[1:]},
		{name: "all-null-argument", recs: []data.Record{
			rec(data.Int(1), data.Null()), rec(data.Int(2), data.Null()), rec(data.Int(1), data.Null()),
		}, keys: []int{0}, out: everyFold(0, 1)},
		{name: "null-and-mixed-kind-keys", recs: []data.Record{
			rec(data.Int(1), data.Int(1)), rec(data.Null(), data.Int(2)), rec(data.Str("1"), data.Int(4)),
			rec(data.Float(1), data.Int(8)), rec(data.Null(), data.Int(16)), rec(data.Int(1), data.Int(32)), rec(data.Bool(true), data.Int(64)),
		}, keys: []int{0}, out: everyFold(0, 1)},
		{name: "signed-zero-keys", recs: []data.Record{
			rec(data.Float(negZero), data.Int(1)), rec(data.Float(0), data.Int(2)), rec(data.Float(1), data.Int(4)), rec(data.Float(negZero), data.Int(8)),
		}, keys: []int{0}, out: everyFold(0, 1)},
		{name: "nan-keys", recs: []data.Record{
			rec(data.Float(nan), data.Int(1)), rec(data.Float(1), data.Int(2)), rec(data.Float(nan), data.Int(4)), rec(data.Float(1), data.Int(8)),
		}, keys: []int{0}, out: everyFold(0, 1)},
		{name: "keys-beyond-2^53", recs: []data.Record{
			rec(data.Int(big+1), data.Int(1)), rec(data.Int(big), data.Int(2)), rec(data.Int(big+1), data.Int(4)), rec(data.Int(-big-1), data.Int(8)),
		}, keys: []int{0}, out: everyFold(0, 0)},
		{name: "nan-and-mixed-kind-arguments", recs: []data.Record{
			rec(data.Int(1), data.Float(nan)), rec(data.Int(1), data.Float(2)), rec(data.Int(2), data.Int(3)),
			rec(data.Int(2), data.Float(2.5)), rec(data.Int(2), data.Float(nan)),
		}, keys: []int{0}, out: everyFold(0, 1)},
		{name: "float-sum-order", recs: []data.Record{
			rec(data.Int(1), data.Float(1e16)), rec(data.Int(1), data.Float(1)), rec(data.Int(1), data.Float(-1e16)), rec(data.Int(1), data.Float(1)),
		}, keys: []int{0}, out: everyFold(0, 1)},
		{name: "ragged", recs: []data.Record{
			rec(data.Int(1), data.Int(10)), rec(data.Int(2), data.Int(20), data.Int(0)), rec(data.Int(1), data.Int(30)),
		}, keys: []int{0}, out: everyFold(0, 1)},
	}
	for _, tc := range cases {
		for _, algo := range []physical.Algorithm{physical.HashGroupBy, physical.SortGroupBy} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, algo), func(t *testing.T) {
				b := plan.NewBuilder("group")
				g := b.GroupAggregate(b.Source("s", plan.Collection(nil)), tc.keys, tc.out...)
				b.Collect(g)
				b.MustBuild()
				out := runBothAlgo(t, g, tc.recs, algo)
				if len(tc.recs) > 0 && len(out) == 0 {
					t.Error("no group came back")
				}
			})
		}
	}
}

// TestHintedGroupNeverCallsTheUDFs: over rectangular rows the grouped
// consumer runs on the columns alone, and reads only the columns its
// spec names.
func TestHintedGroupNeverCallsTheUDFs(t *testing.T) {
	recs := boundaryRecs(2*window+5, false)
	b := plan.NewBuilder("group")
	g := b.GroupAggregate(b.FilterWhere(b.Source("s", plan.Collection(nil)), 0, plan.GreaterEq, data.Int(0)), []int{2}, everyFold(2, 3)...)
	b.Collect(g)
	b.MustBuild()
	key, group := g.Key, g.Group()
	calls := 0
	g = g.WithUDF(plan.GroupFunc(func(k data.Value, rs []data.Record) ([]data.Record, error) { calls++; return group(k, rs) }))
	g.Key = func(r data.Record) (data.Value, error) { calls++; return key(r) }
	p := asPipeline(context.Background(), recs)
	p.push(g.Inputs()[0])
	out, err := p.group(g, false)
	if err != nil || len(out) == 0 {
		t.Fatal(out, err)
	}
	if calls != 0 {
		t.Errorf("the grouped consumer called the row UDFs %d times over rectangular rows", calls)
	}
	if reads, all := p.reads(nil, true); all || fmt.Sprint(reads) != "[0 2 3]" {
		t.Errorf("the grouped chain's read set is %v (all=%v), want [0 2 3]", reads, all)
	}
}

// BenchmarkGroupAggregate is the grouped consumer against the UDF twin
// derived from the same spec — SELECT k, COUNT(*), SUM(v), AVG(v) GROUP
// BY k — over rows, as from inside an atom: few and many groups, int
// and string keys, a query-sized and a scan-sized input.
func BenchmarkGroupAggregate(b *testing.B) {
	for _, rows := range []int{500, 100_000} {
		for _, groups := range []int{8, 4096} {
			for _, kind := range []string{"int", "string"} {
				recs := make([]data.Record, rows)
				for i := range recs {
					k := data.Int(int64(i*7919) % int64(groups))
					if kind == "string" {
						k = data.Str(fmt.Sprintf("key-%04d", k.Int()))
					}
					recs[i] = data.NewRecord(k, data.Float(float64(i%1000)/8))
				}
				pb := plan.NewBuilder("bench")
				g := pb.GroupAggregate(pb.Source("s", plan.Collection(nil)), []int{0},
					plan.GroupCol{Fn: plan.GroupKey}, plan.GroupCol{Fn: plan.GroupCountAll},
					plan.GroupCol{Fn: plan.GroupSum, Field: 1}, plan.GroupCol{Fn: plan.GroupAvg, Field: 1})
				pb.Collect(g)
				pb.MustBuild()
				for _, lop := range []*plan.Operator{g, udfTwin(g)} {
					name := "hinted"
					if lop.ColGroup() == nil {
						name = "udf"
					}
					b.Run(fmt.Sprintf("%d/%d/%s/%s", rows, groups, kind, name), func(b *testing.B) {
						ctx, d := context.Background(), &datasetOps{}
						op := &physical.Operator{Logical: lop, Algo: physical.HashGroupBy}
						b.ReportAllocs()
						b.SetBytes(data.TotalBytes(recs))
						for i := 0; i < b.N; i++ {
							out, err := d.ExecOp(ctx, op, []any{recs})
							if err != nil || len(out.([]data.Record)) != min(groups, rows) {
								b.Fatal(out, err)
							}
						}
					})
				}
			}
		}
	}
}
