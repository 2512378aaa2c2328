package javaengine

import (
	"context"
	"fmt"
	"testing"

	"rheem/internal/core/batch"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// BenchmarkHintedChain runs colscan-1m's chain — FilterWhere(value < t)
// → ProjectCols(value) — below the atom runner, over rows (the in-atom
// shape) and over a batch (an external input), into a sum (the
// aggregate folds the pipeline) and into rows (a row consumer forces
// it). B/op is the gate's subject: the sum must not grow with the input.
func BenchmarkHintedChain(b *testing.B) {
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
