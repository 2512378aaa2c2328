// E13 — columnar batch execution on the hot path. The workload is the
// vectorization-friendly chain: filter → project → global aggregate
// over a large two-column dataset. It is built twice from one spec:
// hinted, with the declarative column forms the single-node engine runs
// its columnar kernels on, and as the UDF twin, from the row UDFs the
// same spec generates. Both run on the identical platform assignment
// and engine; the only difference is the plan, so the measured gap is
// the row-at-a-time tax itself.

package bench

import (
	"fmt"
	"runtime"
	"time"

	"rheem"
	"rheem/internal/core/engine"
	"rheem/internal/core/executor"
	"rheem/internal/core/metrics"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
)

func init() {
	register("columnar", columnar)
}

// ColumnarThreshold is the filter operand: values are uniform in
// [0, 1000), so the predicate keeps ~half the input.
const ColumnarThreshold = 500

// ColumnarRecords builds the E13 dataset: (id, value) int pairs with
// values spread deterministically over [0, 1000).
func ColumnarRecords(n int) []data.Record {
	out := make([]data.Record, n)
	for i := range out {
		out[i] = data.NewRecord(
			data.Int(int64(i)),
			data.Int(Burn(int64(i), 2)%1000),
		)
	}
	return out
}

// ColumnarSum is the chain's expected output: the sum of values below
// the threshold — the row/batch byte-identity check in one integer.
func ColumnarSum(recs []data.Record) int64 {
	var sum int64
	for _, r := range recs {
		if v := r.Field(1).Int(); v < ColumnarThreshold {
			sum += v
		}
	}
	return sum
}

// ColumnarPlan builds the hot-path chain over a prebuilt dataset:
// filter(value < threshold) → project(value) → sum. hinted builds it
// with FilterWhere / ProjectCols / AggregateCols, whose column hints the
// single-node engine vectorizes; otherwise the chain is its UDF twin —
// plain Filter / Map / Reduce over the UDFs the same spec generates,
// which every engine runs row by row.
func ColumnarPlan(recs []data.Record, hinted bool) (*physical.Plan, error) {
	b := plan.NewBuilder("colchain")
	s := b.Source("src", plan.Collection(recs))
	s.CardHint = int64(len(recs))
	if hinted {
		f := b.FilterWhere(s, 1, plan.Less, data.Int(ColumnarThreshold))
		b.Collect(b.AggregateCols(b.ProjectCols(f, 1), plan.AggSum))
	} else {
		pred := &plan.ColumnPredicate{Field: 1, Op: plan.Less, Operand: data.Int(ColumnarThreshold)}
		f := b.Filter(s, pred.FilterFunc())
		p := b.Map(f, func(r data.Record) (data.Record, error) { return r.Project(1), nil })
		b.Collect(b.Reduce(p, (&plan.ColumnAggregate{Fns: []plan.AggFn{plan.AggSum}}).ReduceFunc()))
	}
	lp, err := b.Build()
	if err != nil {
		return nil, err
	}
	return physical.FromLogical(lp)
}

// ColumnarAssignments pins the source to the relational engine and the
// chain to the single-node engine — the same boundary idiom as E11, so
// the chain is its own atom with an external input whose format the
// executor picks per the consumer's batch capability.
func ColumnarAssignments(pp *physical.Plan) map[int]engine.PlatformID {
	fa := make(map[int]engine.PlatformID, len(pp.Ops))
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindSource {
			fa[op.ID] = relengine.ID
		} else {
			fa[op.ID] = javaengine.ID
		}
	}
	return fa
}

// RunColumnarTraced optimizes and executes the columnar chain, hinted
// or as its UDF twin, on the context's registry, verifying the
// aggregate against the reference sum. hub == nil runs untraced.
func RunColumnarTraced(ctx *rheem.Context, hub *metrics.Hub, recs []data.Record, hinted bool) (*executor.Result, error) {
	pp, err := ColumnarPlan(recs, hinted)
	if err != nil {
		return nil, err
	}
	res, err := runForced(pp, ctx.Registry(), hub, "colchain",
		optimizer.Options{ForcedAssignments: ColumnarAssignments(pp)}, executor.Options{})
	if err != nil {
		return nil, err
	}
	if len(res.Records) != 1 || res.Records[0].Field(0).Int() != ColumnarSum(recs) {
		return nil, fmt.Errorf("columnar chain produced %v, want sum %d", res.Records, ColumnarSum(recs))
	}
	return res, nil
}

// columnar is the E13 experiment: the hot-path chain at growing sizes,
// UDF twin vs hinted plan, best-of-reps wall time (vectorization is a
// wall-clock effect; the simulated clock moves only through the
// cheaper conversion edges).
func columnar(cfg Config) ([]*Table, error) {
	sizes, reps := []int{50_000, 200_000, 1_000_000}, 3
	if cfg.Quick {
		sizes, reps = []int{5_000, 20_000}, 1
	}
	t := &Table{
		Title:   "E13 — columnar batch execution (filter → project → sum)",
		Note:    "Same spec, same platforms, same engine; 'hinted' carries column hints the java engine runs vectorized kernels on over channel.Batch inputs, 'udf' is the plan built from the generated row UDFs.",
		Columns: []string{"rows", "udf wall", "hinted wall", "udf rec/s", "hinted rec/s", "speedup"},
	}
	for _, n := range sizes {
		cfg.logf("columnar: rows=%d", n)
		recs := ColumnarRecords(n)
		walls := map[bool]time.Duration{}
		for _, hinted := range []bool{false, true} {
			best := time.Duration(0)
			for rep := 0; rep < reps; rep++ {
				runtime.GC() // keep earlier reps' garbage out of this rep's wall
				ctx, err := newCtx(cfg)
				if err != nil {
					return nil, err
				}
				res, err := RunColumnarTraced(ctx, cfg.Hub, recs, hinted)
				ctx.Close()
				if err != nil {
					return nil, err
				}
				if best == 0 || res.Metrics.Wall < best {
					best = res.Metrics.Wall
				}
			}
			walls[hinted] = best
		}
		rps := func(d time.Duration) string {
			if d <= 0 {
				return "-"
			}
			return Count(int(float64(n) / d.Seconds()))
		}
		t.AddRow(Count(n), Dur(walls[false]), Dur(walls[true]),
			rps(walls[false]), rps(walls[true]), Speedup(walls[false], walls[true]))
	}
	return []*Table{t}, nil
}
