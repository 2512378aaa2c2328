package javaengine

import (
	"context"
	"fmt"
	"testing"

	"rheem/internal/core/batch"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// BenchmarkHintedChain runs colscan-1m's chain — FilterWhere(value < t)
// → ProjectCols(value) — below the atom runner, over rows (the in-atom
// shape) and over a batch (an external input), into a sum (the
// aggregate folds the pipeline) and into rows (a row consumer forces
// it). B/op is the gate's subject: the sum must not grow with the input.
//
// 500/group and 4000/map+group are a query's and a built-in's forcing over
// columns at rest — a filter into a grouping by an int key; a column map
// into one — where what a job costs is its scratch or, leased, its result.
func BenchmarkHintedChain(b *testing.B) {
	for _, c := range []struct {
		name string
		rows int
		mapd bool
	}{{"500/group", 500, false}, {"4000/map+group", 4000, true}} {
		recs := make([]data.Record, c.rows)
		for i := range recs {
			recs[i] = data.NewRecord(data.Int(int64(i%24)), data.Int(int64(i*7919)%1000), data.Float(float64(i%1000)/8))
		}
		pb := plan.NewBuilder("bench")
		in := pb.FilterWhere(pb.Source("s", plan.Collection(nil)), 1, plan.Less, data.Int(800))
		chain := []*plan.Operator{in}
		if c.mapd {
			in = pb.MapColumns(in, plan.ColumnMap{
				In:  []plan.ColumnIn{{Field: 0, Kind: batch.ColInt64}, {Field: 2, Kind: batch.ColFloat64}},
				Out: []batch.ColKind{batch.ColInt64, batch.ColInt64, batch.ColFloat64},
				Fn: func(n int, in, out []batch.Column) error {
					copy(out[0].Int64s, in[0].Int64s)
					for i, v := range in[1].Float64s {
						out[2].Float64s[i] = v * 1.8
					}
					return nil
				},
			})
			chain = append(chain, in)
		}
		g := pb.GroupAggregate(in, []int{0}, plan.GroupCol{Fn: plan.GroupKey}, plan.GroupCol{Fn: plan.GroupCountAll}, plan.GroupCol{Fn: plan.GroupAvg, Field: 2})
		pb.Collect(g)
		pb.MustBuild()
		cols := atRest{batch.FromRecords(recs)}
		b.Run(c.name, func(b *testing.B) {
			ctx, d := context.Background(), &datasetOps{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var ds any = cols
				for _, lop := range chain {
					ds, _ = d.ExecOp(ctx, physOp(lop), []any{ds})
				}
				out, err := d.ExecOp(ctx, &physical.Operator{Logical: g, Algo: physical.HashGroupBy}, []any{ds})
				if err != nil || len(out.([]data.Record)) != 24 {
					b.Fatal(out, err)
				}
			}
		})
	}
	for _, rows := range []int{1_000, 100_000, 1_000_000} {
		recs := make([]data.Record, rows)
		for i := range recs {
			recs[i] = data.NewRecord(data.Int(int64(i)), data.Int(int64(i*7919)%1000))
		}
		pb := plan.NewBuilder("bench")
		f := pb.FilterWhere(pb.Source("s", plan.Collection(nil)), 1, plan.Less, data.Int(500))
		p := pb.ProjectCols(f, 1)
		a := pb.AggregateCols(p, plan.AggSum)
		pb.Collect(a)
		pb.MustBuild()
		for _, in := range []struct {
			name string
			ds   any
		}{{"rows", recs}, {"batch", batch.FromRecords(recs)}} {
			for _, to := range []string{"sum", "rows"} {
				b.Run(fmt.Sprintf("%d/%s/%s", rows, in.name, to), func(b *testing.B) {
					ctx, d := context.Background(), &datasetOps{}
					b.ReportAllocs()
					b.SetBytes(data.TotalBytes(recs))
					for i := 0; i < b.N; i++ {
						ds := in.ds
						for _, lop := range []*plan.Operator{f, p} {
							ds, _ = d.ExecOp(ctx, physOp(lop), []any{ds})
						}
						var out []data.Record
						var err error
						if to == "sum" {
							var res any
							res, err = d.ExecOp(ctx, physOp(a), []any{ds})
							out, _ = res.([]data.Record)
						} else {
							out, err = ds.(*pipeline).records()
						}
						if err != nil || len(out) == 0 {
							b.Fatal(out, err)
						}
					}
				})
			}
		}
	}
}
