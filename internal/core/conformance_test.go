// Cross-platform differential conformance suite. Every logical
// operator kind is mapped on all three bundled platforms, and the
// paper's central promise is that platform choice is a *cost* decision,
// never a *semantics* decision (§2: "the same logical plan can run on
// any platform with the same result"). This suite enforces that: each
// plan shape in the battery runs on every platform at GOMAXPROCS 1 and
// 4, and the canonicalized outputs must be byte-identical.
//
// The single-node engine runs operators built with the column-hint
// helpers on vectorized kernels and everything else row by row. That is
// a property of the plan, not a mode of the engine, so the second axis
// is a plan-level one: every hinted plan against its UDF twin — the
// same plan with the hints dropped, leaving the UDFs the helpers
// generated from the same spec (udfTwin).
//
// Canonicalization sorts the individual binary record encodings: the
// hash-grouping engines iterate Go maps, so even a single platform's
// output order is unspecified for grouped shapes — the multiset is the
// contract, and the sorted encoding is its canonical form.
package core

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"rheem/internal/core/algo"
	"rheem/internal/core/batch"
	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/executor"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
	"rheem/internal/platform/sparksim"
)

// confPlatforms are the conformance targets: every platform that maps
// the full operator set.
var confPlatforms = []engine.PlatformID{javaengine.ID, sparksim.ID, relengine.ID}

// confWorkers is the suites' workers axis: every case runs at GOMAXPROCS
// 1 and 4, so a platform's parallelism inside an atom — javaengine's row
// windows, sparksim's partitions, on engine's helper runtime — must not
// change a byte of any answer.
var confWorkers = []int{1, 4}

// setWorkers sets GOMAXPROCS for one step of a workers loop; the value
// the test started with comes back when it ends.
func setWorkers(t *testing.T, workers int) {
	old := runtime.GOMAXPROCS(workers)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func confRegistry(t *testing.T) *engine.Registry {
	t.Helper()
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := sparksim.Register(reg, sparksim.Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := relengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

// canonical returns the sorted individual binary encodings of the
// records — the canonical multiset form outputs are compared in.
func canonical(t *testing.T, recs []data.Record) string {
	t.Helper()
	enc := make([]string, len(recs))
	for i, r := range recs {
		var buf bytes.Buffer
		if _, err := data.WriteBinary(&buf, []data.Record{r}); err != nil {
			t.Fatal(err)
		}
		enc[i] = buf.String()
	}
	sort.Strings(enc)
	return strings.Join(enc, "\x00")
}

// udfTwin swaps every operator of a physical plan that carries a column
// hint, loop bodies included, for its twin built from the UDF the hint
// helper generated (ColumnPredicate.FilterFunc, Record.Project,
// ColumnMap.MapFunc, ColumnAggregate.ReduceFunc,
// ColumnGroupAggregate.KeyFunc/GroupFunc, a sort column's FieldKey): the same plan as a caller
// without the helpers would have written it, which every platform runs
// row by row.
func udfTwin(pp *physical.Plan) {
	forEachOp(pp, func(op *physical.Operator) { op.Logical = rowTwin(op.Logical) })
}

// rowTwin is lop without its column form, or lop when it has none.
func rowTwin(lop *plan.Operator) *plan.Operator {
	if _, ok := lop.ColSort(); ok { // the FieldKey SortColumn derived
		return plan.NewBuilder("twin").Sort(nil, lop.Key, lop.Desc())
	}
	var fn any
	switch {
	case lop.ColSource() != nil:
		fn = lop.Source()
	case lop.ColPred() != nil:
		fn = lop.Filter()
	case lop.ColProject() != nil, lop.ColMap() != nil:
		fn = lop.Map()
	case lop.ColAgg() != nil:
		fn = lop.Reduce()
	case lop.ColGroup() != nil:
		fn = lop.Group()
	default:
		return lop
	}
	twin := plan.NewSynthetic(lop.Kind(), lop.Name(), fn)
	twin.Key, twin.Schema, twin.CardHint, twin.Selectivity = lop.Key, lop.Schema, lop.CardHint, lop.Selectivity
	return twin
}

// forEachOp walks a physical plan's operators, descending into loop
// bodies (which share the plan's ID space).
func forEachOp(p *physical.Plan, fn func(*physical.Operator)) {
	for _, op := range p.Ops {
		fn(op)
		if op.Body != nil {
			forEachOp(op.Body, fn)
		}
	}
}

// confCase is one plan shape of the battery. build wires the shape
// from the builder's sources to a Collect sink.
type confCase struct {
	name    string
	sources int  // number of sources build expects (default 1)
	loop    bool // loops pin the whole plan (FixedPlatform) instead of splitting the source off
	build   func(b *plan.Builder, srcs []*plan.Operator)
	// recs, when set, is what source 0 serves instead of confRecords.
	recs []data.Record
	// algo, when set, overrides the optimizer's algorithm decision for
	// every operator of the plan that has it among its candidates.
	algo physical.Algorithm
	// columns keeps the sources' records at rest in column form (confSource).
	columns bool
}

// confSource adds a source serving recs: as rows or, with columns set, as
// a batch at rest (plan.SourceColumns) — row-backed, and so without the
// hint, when recs are ragged.
func confSource(b *plan.Builder, name string, recs []data.Record, columns bool) *plan.Operator {
	if columns {
		return b.SourceColumns(name, columnsOf(recs), nil)
	}
	src := b.Source(name, plan.Collection(recs))
	src.CardHint = int64(len(recs))
	return src
}

// confPlan builds a case's logical plan over its deterministic sources.
func confPlan(c confCase, name string) *plan.Plan {
	b := plan.NewBuilder(name)
	ns := c.sources
	if ns == 0 {
		ns = 1
	}
	srcs := make([]*plan.Operator, ns)
	for i := range srcs {
		recs := confRecords(97+i*13, i)
		if i == 0 && c.recs != nil {
			recs = c.recs
		}
		srcs[i] = confSource(b, fmt.Sprintf("src%d", i), recs, c.columns)
	}
	c.build(b, srcs)
	return b.MustBuild()
}

// runConformance executes one case on one platform and returns the
// canonicalized output. The sources are pinned to a *different* feeder
// platform so the compute chain is a separate atom with an external
// input, and every result crosses a real platform boundary.
// hinted=false runs the case's UDF twin.
func runConformance(t *testing.T, c confCase, target engine.PlatformID, hinted bool) string {
	t.Helper()
	return runConformanceCal(t, c, target, hinted, nil)
}

// runConformanceCal is runConformance with a cost calibrator threaded
// into both the optimizer and the executor (mid-run re-planning), the
// way rheem.Execute wires one — the calibration differential suite's
// entry point.
func runConformanceCal(t *testing.T, c confCase, target engine.PlatformID, hinted bool, cal *cost.Calibrator) string {
	t.Helper()
	reg := confRegistry(t)
	// The java target is fed from relengine, whose direct Table → Batch
	// edge is the cheaper route, so a hinted consumer's external input
	// arrives as a batch.
	feeder := javaengine.ID
	if target == javaengine.ID {
		feeder = relengine.ID
	}

	pp, err := physical.FromLogical(confPlan(c, fmt.Sprintf("conf-%s-%s", c.name, target)))
	if err != nil {
		t.Fatal(err)
	}
	if !hinted {
		udfTwin(pp)
	}

	opts := optimizer.Options{DisableRules: true, Calibration: cal}
	if c.loop {
		opts.FixedPlatform = target
	} else {
		fa := map[int]engine.PlatformID{}
		forEachOp(pp, func(op *physical.Operator) {
			if op.Kind() == plan.KindSource {
				fa[op.ID] = feeder
			} else {
				fa[op.ID] = target
			}
		})
		opts.ForcedAssignments = fa
	}
	ep, err := optimizer.Optimize(pp, reg, opts)
	if err != nil {
		t.Fatalf("%s on %s: optimize: %v", c.name, target, err)
	}
	if c.algo != "" {
		forEachOp(ep.Physical, func(op *physical.Operator) {
			if slices.Contains(physical.Candidates(op), c.algo) {
				op.Algo = c.algo
			}
		})
	}
	res, err := executor.Run(ep, reg, executor.Options{Calibration: cal})
	if err != nil {
		t.Fatalf("%s on %s (GOMAXPROCS %d): %v", c.name, target, runtime.GOMAXPROCS(0), err)
	}
	return canonical(t, res.Records)
}

// confRecords is a deterministic two-field dataset with duplicate keys
// (field 0 mod small numbers collides) and a salt so multiple sources
// differ.
func confRecords(n, salt int) []data.Record {
	out := make([]data.Record, n)
	for i := range out {
		out[i] = data.NewRecord(
			data.Int(int64(i+salt)),
			data.Str(fmt.Sprintf("v%d", (i*7+salt)%23)),
		)
	}
	return out
}

func modKey(k int64) plan.KeyFunc {
	return func(r data.Record) (data.Value, error) {
		return data.Int(r.Field(0).Int() % k), nil
	}
}

var sumReduce plan.ReduceFunc = func(a, b data.Record) (data.Record, error) {
	return data.NewRecord(a.Field(0), data.Int(a.Field(1).Int()+b.Field(1).Int())), nil
}

// confColumnMap is a column map over confRecords' (int, string) rows; its
// derived row UDF is what udfTwin leaves of it.
var confColumnMap = plan.ColumnMap{
	In:  []plan.ColumnIn{{Field: 0, Kind: batch.ColInt64}, {Field: 1, Kind: batch.ColString}},
	Out: []batch.ColKind{batch.ColString, batch.ColInt64, batch.ColBool},
	Fn: func(n int, in, out []batch.Column) error {
		for i := 0; i < n; i++ {
			x, v := in[0].Int64s[i], in[1].Strings[i]
			out[0].Strings[i], out[1].Int64s[i], out[2].Bools[i] = v+"!", x*3+1, x%2 == 0
		}
		return nil
	},
}

// fullBattery is what the differential suites run: conformanceBattery,
// whose optimized plans are recorded (TestOptimizerGoldenPlans), plus
// the declarative grouped aggregate over groupedCases under both
// grouping algorithms — vectorized on the java engine, its derived
// KeyFunc/GroupFunc everywhere else — a column map, alone and in a
// hinted chain, and the Sample that keeps nothing (LIMIT 0).
func fullBattery() []confCase {
	battery := append(conformanceBattery(),
		confCase{name: "sample-zero", build: func(b *plan.Builder, s []*plan.Operator) {
			sorted := b.Sort(s[0], modKey(97), false)
			b.Collect(b.Union(b.Sample(sorted, 0), b.Sample(sorted, 3))) // three records, none from the first
		}},
		confCase{
			// Past three 4 096-row windows: javaengine forces the chain a
			// window at a time on every core, sparksim fuses it into one
			// pass per partition of stages that fan out.
			name: "udf-chain-windows", recs: confRecords(3*4096+17, 0),
			build: func(b *plan.Builder, s []*plan.Operator) {
				m := b.Map(s[0], func(r data.Record) (data.Record, error) {
					return data.NewRecord(r.Field(0), data.Int(r.Field(0).Int()*3+1), r.Field(1)), nil
				})
				f := b.Filter(m, func(r data.Record) (bool, error) { return r.Field(0).Int()%5 != 2, nil })
				fm := b.FlatMap(f, func(r data.Record) ([]data.Record, error) {
					out := make([]data.Record, r.Field(0).Int()%4)
					for i := range out {
						out[i] = r.Append(data.Int(int64(i)))
					}
					return out, nil
				})
				b.Collect(b.Map(fm, func(r data.Record) (data.Record, error) {
					return data.NewRecord(r.Field(0), r.Field(2), data.Int(r.Field(1).Int()+r.Field(3).Int())), nil
				}))
			},
		},
		confCase{name: "map-columns", build: func(b *plan.Builder, s []*plan.Operator) { b.Collect(b.MapColumns(s[0], confColumnMap)) }},
		confCase{name: "map-columns-chain", build: func(b *plan.Builder, s []*plan.Operator) {
			m := b.MapColumns(b.FilterWhere(s[0], 1, plan.Less, data.Str("v2")), confColumnMap)
			b.Collect(b.AggregateCols(b.ProjectCols(b.FilterWhere(m, 2, plan.Eq, data.Bool(true)), 1, 0), plan.AggSum, plan.AggMax))
		}})
	for _, g := range groupedCases() {
		for _, algo := range groupAlgos {
			if len(g.recs) == 0 {
				continue
			}
			battery = append(battery, confCase{
				name: fmt.Sprintf("group-agg-%s-%s", g.name, algo), recs: g.recs, algo: algo,
				build: func(b *plan.Builder, s []*plan.Operator) { b.Collect(b.GroupAggregate(s[0], g.keys, g.out...)) },
			})
		}
	}
	return battery
}

var groupAlgos = []physical.Algorithm{physical.HashGroupBy, physical.SortGroupBy}

// groupedCase is one grouped aggregate of the differential suites: a
// dataset, key columns and output columns.
type groupedCase struct {
	name string
	recs []data.Record
	keys []int
	out  []plan.GroupCol
}

// groupedCases are the inputs a grouped kernel is most likely to get
// wrong: every key-table kind, every fold, nulls in keys and arguments,
// and the keys where equality, hashing and ordering could disagree.
func groupedCases() []groupedCase {
	rec := data.NewRecord
	// every fold over field arg, led by key column key.
	folds := func(key, arg int) []plan.GroupCol {
		return []plan.GroupCol{
			{Fn: plan.GroupKey, Field: key}, {Fn: plan.GroupCountAll}, {Fn: plan.GroupCount, Field: arg},
			{Fn: plan.GroupSum, Field: arg}, {Fn: plan.GroupAvg, Field: arg}, {Fn: plan.GroupMin, Field: arg}, {Fn: plan.GroupMax, Field: arg},
		}
	}
	// (int key, string key, float argument with nulls, int argument).
	mixed := make([]data.Record, 60)
	for i := range mixed {
		arg := data.Float(float64(i*13%32) / 4)
		if i%7 == 3 {
			arg = data.Null()
		}
		mixed[i] = rec(data.Int(int64(i*5%7)), data.Str(fmt.Sprintf("k%d", i*3%4)), arg, data.Int(int64(i%9-4)))
	}
	nan, negZero, big := math.NaN(), math.Copysign(0, -1), int64(1)<<53
	return []groupedCase{
		{name: "int-key", recs: mixed, keys: []int{0}, out: folds(0, 2)},
		{name: "string-key", recs: mixed, keys: []int{1}, out: folds(1, 3)},
		{name: "two-keys", recs: mixed, keys: []int{1, 0}, out: append(folds(0, 2), plan.GroupCol{Fn: plan.GroupKey, Field: 1})},
		{name: "zero-keys", recs: mixed, out: append(folds(0, 2)[1:], folds(0, 3)[3:]...)},
		{name: "count-star-alone", recs: mixed, out: []plan.GroupCol{{Fn: plan.GroupCountAll}}},
		{name: "empty-input", keys: []int{0}, out: folds(0, 1)},
		{name: "empty-input-zero-keys", out: folds(0, 1)[1:]},
		{name: "all-null-argument", recs: []data.Record{
			rec(data.Int(1), data.Null()), rec(data.Int(2), data.Null()), rec(data.Int(1), data.Null()),
		}, keys: []int{0}, out: folds(0, 1)},
		{name: "null-keys", recs: []data.Record{
			rec(data.Int(1), data.Int(1)), rec(data.Null(), data.Int(2)), rec(data.Int(1), data.Int(4)), rec(data.Null(), data.Int(8)),
		}, keys: []int{0}, out: folds(0, 1)},
		{name: "signed-zero-keys", recs: []data.Record{
			rec(data.Float(negZero), data.Int(1)), rec(data.Float(0), data.Int(2)), rec(data.Float(1), data.Int(4)), rec(data.Float(negZero), data.Int(8)),
		}, keys: []int{0}, out: folds(0, 1)},
		{name: "keys-beyond-2^53", recs: []data.Record{
			rec(data.Int(big+1), data.Int(1)), rec(data.Int(big), data.Int(2)), rec(data.Int(big+1), data.Int(4)), rec(data.Int(-big-1), data.Int(8)),
		}, keys: []int{0}, out: folds(0, 0)},
		{name: "nan-keys", recs: []data.Record{
			rec(data.Float(nan), data.Int(1)), rec(data.Float(1), data.Int(2)), rec(data.Float(nan), data.Int(4)), rec(data.Float(1), data.Int(8)),
		}, keys: []int{0}, out: folds(0, 1)},
	}
}

// conformanceBattery covers every operator kind mapped on more than
// one platform: the record-wise trio, every combining kind, grouping,
// sampling, the multi-input operators and both loop kinds (which also
// exercise Source, Sink and LoopInput on each platform).
func conformanceBattery() []confCase {
	return []confCase{
		{name: "map", build: func(b *plan.Builder, s []*plan.Operator) {
			b.Collect(b.Map(s[0], func(r data.Record) (data.Record, error) {
				return data.NewRecord(r.Field(0), data.Int(r.Field(0).Int()*3+1)), nil
			}))
		}},
		{name: "flatmap", build: func(b *plan.Builder, s []*plan.Operator) {
			b.Collect(b.FlatMap(s[0], func(r data.Record) ([]data.Record, error) {
				// Variable fan-out, including dropping records.
				k := r.Field(0).Int() % 3
				out := make([]data.Record, k)
				for i := range out {
					out[i] = data.NewRecord(r.Field(0), data.Int(int64(i)))
				}
				return out, nil
			}))
		}},
		{name: "filter", build: func(b *plan.Builder, s []*plan.Operator) {
			b.Collect(b.Filter(s[0], func(r data.Record) (bool, error) {
				return r.Field(0).Int()%3 != 1, nil
			}))
		}},
		{name: "reduce-by-key", build: func(b *plan.Builder, s []*plan.Operator) {
			m := b.Map(s[0], func(r data.Record) (data.Record, error) {
				return data.NewRecord(data.Int(r.Field(0).Int()%7), data.Int(1)), nil
			})
			b.Collect(b.ReduceByKey(m, modKey(7), sumReduce))
		}},
		{name: "reduce-by-key-signed-zero", build: func(b *plan.Builder, s []*plan.Operator) {
			// Equal(+0, -0) holds: hash partitioning, hash grouping and
			// sort grouping must all fold the two into one key.
			zeroKey := func(r data.Record) (data.Value, error) {
				switch r.Field(0).Int() % 3 {
				case 0:
					return data.Float(0), nil
				case 1:
					return data.Float(math.Copysign(0, -1)), nil
				}
				return data.Float(1), nil
			}
			m := b.Map(s[0], func(r data.Record) (data.Record, error) {
				return data.NewRecord(data.Int(r.Field(0).Int()%3), data.Int(1)), nil
			})
			// Field 0 folds by min, so the result does not depend on
			// which of the two zeros an engine saw first.
			b.Collect(b.ReduceByKey(m, zeroKey, func(a, b data.Record) (data.Record, error) {
				lo := a.Field(0)
				if data.Compare(b.Field(0), lo) < 0 {
					lo = b.Field(0)
				}
				return data.NewRecord(lo, data.Int(a.Field(1).Int()+b.Field(1).Int())), nil
			}))
		}},
		{name: "reduce", build: func(b *plan.Builder, s []*plan.Operator) {
			m := b.Map(s[0], func(r data.Record) (data.Record, error) {
				return data.NewRecord(data.Int(0), r.Field(0)), nil
			})
			b.Collect(b.Reduce(m, sumReduce))
		}},
		{name: "count", build: func(b *plan.Builder, s []*plan.Operator) {
			b.Collect(b.Count(s[0]))
		}},
		{name: "distinct", build: func(b *plan.Builder, s []*plan.Operator) {
			m := b.Map(s[0], func(r data.Record) (data.Record, error) {
				return data.NewRecord(data.Int(r.Field(0).Int() % 11)), nil
			})
			b.Collect(b.Distinct(m))
		}},
		{name: "sort", build: func(b *plan.Builder, s []*plan.Operator) {
			b.Collect(b.Sort(s[0], modKey(5), true))
		}},
		{name: "group-by", build: func(b *plan.Builder, s []*plan.Operator) {
			b.Collect(b.GroupBy(s[0], modKey(4), func(key data.Value, group []data.Record) ([]data.Record, error) {
				var sum int64
				for _, r := range group {
					sum += r.Field(0).Int()
				}
				return []data.Record{data.NewRecord(key, data.Int(sum), data.Int(int64(len(group))))}, nil
			}))
		}},
		{name: "sample", build: func(b *plan.Builder, s []*plan.Operator) {
			// First-N sampling on every platform: deterministic, and the
			// upstream sort makes the N records platform-independent.
			b.Collect(b.Sample(b.Sort(s[0], modKey(97), false), 10))
		}},
		{name: "union", sources: 2, build: func(b *plan.Builder, s []*plan.Operator) {
			b.Collect(b.Union(s[0], s[1]))
		}},
		{name: "join", sources: 2, build: func(b *plan.Builder, s []*plan.Operator) {
			b.Collect(b.Join(s[0], s[1], modKey(6), modKey(6)))
		}},
		{name: "cartesian", sources: 2, build: func(b *plan.Builder, s []*plan.Operator) {
			l := b.Filter(s[0], func(r data.Record) (bool, error) { return r.Field(0).Int() < 8, nil })
			r := b.Filter(s[1], func(r data.Record) (bool, error) { return r.Field(0).Int() < 6, nil })
			b.Collect(b.Cartesian(l, r))
		}},
		{name: "theta-join", sources: 2, build: func(b *plan.Builder, s []*plan.Operator) {
			l := b.Filter(s[0], func(r data.Record) (bool, error) { return r.Field(0).Int() < 12, nil })
			r := b.Filter(s[1], func(r data.Record) (bool, error) { return r.Field(0).Int() < 12, nil })
			b.Collect(b.ThetaJoin(l, r, func(a, bb data.Record) (bool, error) {
				return a.Field(0).Int() < bb.Field(0).Int(), nil
			}))
		}},
		{name: "filter-col", build: func(b *plan.Builder, s []*plan.Operator) {
			// Declarative column predicate: vectorized on the java
			// engine's batch path, generated row UDF everywhere else.
			b.Collect(b.FilterWhere(s[0], 0, plan.GreaterEq, data.Int(30)))
		}},
		{name: "project-col", build: func(b *plan.Builder, s []*plan.Operator) {
			b.Collect(b.ProjectCols(s[0], 1, 0))
		}},
		{name: "agg-col", build: func(b *plan.Builder, s []*plan.Operator) {
			m := b.Map(s[0], func(r data.Record) (data.Record, error) {
				k := r.Field(0).Int()
				return data.NewRecord(data.Int(k), data.Int(k*k%19), data.Float(float64(k)/4)), nil
			})
			b.Collect(b.AggregateCols(m, plan.AggSum, plan.AggMax, plan.AggMin))
		}},
		{name: "columnar-chain", build: func(b *plan.Builder, s []*plan.Operator) {
			// The hot-path shape the columnar scenario benchmarks:
			// filter → project → aggregate, hinted end to end.
			f := b.FilterWhere(s[0], 0, plan.Less, data.Int(60))
			p := b.ProjectCols(f, 0)
			b.Collect(b.AggregateCols(p, plan.AggSum))
		}},
		{name: "repeat", loop: true, build: func(b *plan.Builder, s []*plan.Operator) {
			bb := plan.NewBodyBuilder("body")
			li := bb.LoopInput("st")
			bb.Collect(bb.Map(li, func(r data.Record) (data.Record, error) {
				return data.NewRecord(data.Int(r.Field(0).Int()+1), r.Field(1)), nil
			}))
			b.Collect(b.Repeat(s[0], 3, bb.MustBuild()))
		}},
		{name: "do-while", loop: true, build: func(b *plan.Builder, s []*plan.Operator) {
			bb := plan.NewBodyBuilder("body")
			li := bb.LoopInput("st")
			bb.Collect(bb.Map(li, func(r data.Record) (data.Record, error) {
				return data.NewRecord(data.Int(r.Field(0).Int()*2), r.Field(1)), nil
			}))
			b.Collect(b.DoWhile(s[0], func(iter int, recs []data.Record) (bool, error) {
				return iter < 3, nil
			}, 10, bb.MustBuild()))
		}},
	}
}

// TestCrossPlatformConformance is the differential suite: for every
// plan shape, every platform × workers must reproduce the java
// reference output at GOMAXPROCS 1, canonicalized, byte for byte.
func TestCrossPlatformConformance(t *testing.T) {
	for _, c := range fullBattery() {
		t.Run(c.name, func(t *testing.T) {
			setWorkers(t, 1)
			ref := runConformance(t, c, javaengine.ID, true)
			if ref == "" && c.name != "flatmap" {
				// Every battery case is built to produce output; an empty
				// reference means the case itself is broken.
				t.Fatalf("reference output for %s is empty", c.name)
			}
			for _, target := range confPlatforms {
				for _, workers := range confWorkers {
					if target == javaengine.ID && workers == 1 {
						continue // the reference itself
					}
					setWorkers(t, workers)
					got := runConformance(t, c, target, true)
					if got != ref {
						t.Errorf("%s on %s at GOMAXPROCS %d diverges from the java reference at 1",
							c.name, target, workers)
					}
				}
			}
		})
	}
}

// TestCrossPlatformConformanceColumnar runs the full battery on the
// java engine as written — hinted operators on the vectorized kernels,
// their external input arriving as a channel.Batch — against each
// case's UDF twin run row by row: a column hint must be a pure physical
// substitution — byte-identical results at any GOMAXPROCS. (For the cases
// without a hint the twin is the plan itself, which keeps the battery
// whole under one comparison.)
func TestCrossPlatformConformanceColumnar(t *testing.T) {
	for _, c := range fullBattery() {
		t.Run(c.name, func(t *testing.T) {
			setWorkers(t, 1)
			ref := runConformance(t, c, javaengine.ID, false)
			for _, workers := range confWorkers {
				setWorkers(t, workers)
				got := runConformance(t, c, javaengine.ID, true)
				if got != ref {
					t.Errorf("%s as hinted (GOMAXPROCS %d) diverges from its UDF twin",
						c.name, workers)
				}
			}
		})
	}
}

// TestConformanceCoversAllSharedKinds guards the battery itself: if a
// new operator kind is mapped on two or more platforms, or gains a row
// form in algo.Exec (which every platform then runs), it must join the
// conformance battery. The set of exercised kinds is derived from the
// battery's own plans, so the check can't drift from the cases.
func TestConformanceCoversAllSharedKinds(t *testing.T) {
	reg := confRegistry(t)
	mappedOn := map[plan.OpKind]map[engine.PlatformID]bool{}
	for _, m := range reg.Mappings() {
		if mappedOn[m.Kind] == nil {
			mappedOn[m.Kind] = map[engine.PlatformID]bool{}
		}
		mappedOn[m.Kind][m.Platform] = true
	}

	exercised := map[plan.OpKind]bool{}
	for _, c := range fullBattery() {
		b := plan.NewBuilder("cover-" + c.name)
		ns := c.sources
		if ns == 0 {
			ns = 1
		}
		srcs := make([]*plan.Operator, ns)
		for i := range srcs {
			srcs[i] = b.Source(fmt.Sprintf("s%d", i), plan.Collection(nil))
		}
		c.build(b, srcs)
		pp, err := physical.FromLogical(b.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		forEachOp(pp, func(op *physical.Operator) { exercised[op.Kind()] = true })
	}

	for kind, platforms := range mappedOn {
		if len(platforms) >= 2 && !exercised[kind] {
			t.Errorf("operator kind %s is mapped on %d platforms but missing from the conformance battery",
				kind, len(platforms))
		}
	}
	for kind := plan.KindSource; kind <= plan.KindSink; kind++ {
		// Over no rows only the dispatch runs: an error is "no row form".
		_, err := algo.Exec(&physical.Operator{Logical: plan.NewSynthetic(kind, "probe", nil)}, nil, nil)
		if err == nil && !exercised[kind] {
			t.Errorf("operator kind %s has a row form in algo.Exec but is missing from the conformance battery", kind)
		}
	}
}

// warmedConfCalibrator builds a calibrator carrying extreme,
// deliberately-adversarial corrections: every operator kind on every
// platform gets a large cost bias (alternating direction per platform,
// so the learned factors disagree wildly between platforms), and every
// kind gets a cardinality factor pushed to the clamp. Enough samples
// per cell clear the min-sample guard, so all of it is applied.
func warmedConfCalibrator(t *testing.T) *cost.Calibrator {
	t.Helper()
	cal := cost.NewCalibrator(cost.CalibratorConfig{})
	var atoms []cost.AtomObs
	var cards []cost.CardObs
	for k := plan.KindSource; k <= plan.KindSink; k++ {
		kind := k.String()
		for i, pl := range confPlatforms {
			est, act := time.Millisecond, 200*time.Millisecond
			if i%2 == 1 {
				est, act = 200*time.Millisecond, time.Millisecond
			}
			for j := 0; j < 5; j++ {
				atoms = append(atoms, cost.AtomObs{
					Kind: kind, Platform: string(pl), Estimated: est, Actual: act,
				})
			}
		}
		for j := 0; j < 5; j++ {
			cards = append(cards, cost.CardObs{Kind: kind, Estimated: 10, Actual: 100_000})
		}
	}
	cal.Fold(atoms, cards)
	snap := cal.Snapshot()
	if len(snap.Cost) == 0 || len(snap.Card) == 0 {
		t.Fatal("synthetic warm-up produced no cells")
	}
	for _, c := range snap.Cost {
		if !c.Applied {
			t.Fatalf("cell %s/%s still guarded after warm-up", c.Kind, c.Platform)
		}
	}
	return cal
}

// TestConformanceCalibrationDifferential is the calibration safety
// suite: results are a semantics contract, calibration is a cost
// lever. For every battery case on every platform, outputs with
// calibration off (nil), on-but-empty, and warmed with extreme hostile
// factors must be byte-identical — at GOMAXPROCS 1 and 4.
func TestConformanceCalibrationDifferential(t *testing.T) {
	warm := warmedConfCalibrator(t)
	empty := cost.NewCalibrator(cost.CalibratorConfig{})
	variants := []struct {
		name string
		cal  *cost.Calibrator
	}{{"empty", empty}, {"warmed", warm}}
	for _, c := range fullBattery() {
		t.Run(c.name, func(t *testing.T) {
			for _, target := range confPlatforms {
				setWorkers(t, 1)
				ref := runConformance(t, c, target, true)
				for _, v := range variants {
					for _, workers := range confWorkers {
						setWorkers(t, workers)
						got := runConformanceCal(t, c, target, true, v.cal)
						if got != ref {
							t.Errorf("%s on %s: calibration=%s at GOMAXPROCS %d changed the output",
								c.name, target, v.name, workers)
						}
					}
				}
			}
		})
	}
	if warm.Folds() != 1 {
		t.Errorf("differential runs folded into the calibrator (folds=%d, want 1): the executor must never feed it", warm.Folds())
	}
}

// inAtomCase is one plan of the in-atom differential suite: a dataset
// and a hinted chain over it.
type inAtomCase struct {
	name  string
	recs  []data.Record
	build func(b *plan.Builder, src *plan.Operator)
}

// hintedChain is the hot-path shape: filter → project → aggregate.
func hintedChain(field int, op plan.CompareOp, operand data.Value, cols []int, fns ...plan.AggFn) func(*plan.Builder, *plan.Operator) {
	return func(b *plan.Builder, src *plan.Operator) {
		f := b.FilterWhere(src, field, op, operand)
		b.Collect(b.AggregateCols(b.ProjectCols(f, cols...), fns...))
	}
}

// inAtomBattery holds the inputs a kernel is most likely to get wrong
// when it is handed rows from inside its own atom rather than a batch a
// converter built. Cases whose UDF panics (a predicate field or a
// projection index outside the record) are not here: the executor runs
// atoms on goroutines without a recover, so a panic cannot be compared
// through it — javaengine's TestHintedFieldOutsideInput pins those at
// the platform boundary.
func inAtomBattery() []inAtomCase {
	battery := hintedChainBattery()
	for _, g := range groupedCases() {
		// Each under both grouping algorithms, which runInAtom reads off
		// the name: the optimizer would sort the smallest and hash the rest.
		for _, algo := range groupAlgos {
			battery = append(battery, inAtomCase{fmt.Sprintf("group-agg-%s-%s", g.name, algo), g.recs, func(b *plan.Builder, src *plan.Operator) {
				b.Collect(b.GroupAggregate(src, g.keys, g.out...))
			}})
		}
	}
	battery = append(battery, inAtomCase{"map-columns-in-chain", confRecords(40, 3), func(b *plan.Builder, src *plan.Operator) {
		m := b.MapColumns(b.FilterWhere(src, 0, plan.Less, data.Int(35)), confColumnMap)
		b.Collect(b.GroupAggregate(m, []int{2}, plan.GroupCol{Fn: plan.GroupKey, Field: 2}, plan.GroupCol{Fn: plan.GroupSum, Field: 1}, plan.GroupCol{Fn: plan.GroupMin, Field: 0}))
	}})
	// A grouped aggregate reading a hinted chain, and a hinted filter
	// (HAVING's shape) reading it.
	return append(battery, inAtomCase{"group-agg-in-chain", groupedCases()[0].recs, func(b *plan.Builder, src *plan.Operator) {
		f := b.FilterWhere(b.FilterWhere(src, 3, plan.GreaterEq, data.Int(-2)), 0, plan.NotEq, data.Int(4))
		g := b.GroupAggregate(b.ProjectCols(f, 2, 1), []int{1}, plan.GroupCol{Fn: plan.GroupKey, Field: 1},
			plan.GroupCol{Fn: plan.GroupCountAll}, plan.GroupCol{Fn: plan.GroupAvg, Field: 0})
		b.Collect(b.FilterWhere(g, 1, plan.Greater, data.Int(9)))
	}})
}

func hintedChainBattery() []inAtomCase {
	nan := math.NaN()
	rec := data.NewRecord
	return []inAtomCase{
		{"empty-input", nil, hintedChain(0, plan.Less, data.Int(5), []int{0}, plan.AggSum)},
		{"one-row", []data.Record{rec(data.Int(3), data.Str("a"))},
			hintedChain(0, plan.Less, data.Int(5), []int{1, 0}, plan.AggFirst, plan.AggSum)},
		{"leading-nulls", []data.Record{
			rec(data.Null(), data.Int(1)), rec(data.Null(), data.Int(2)), rec(data.Int(4), data.Int(3)), rec(data.Int(9), data.Int(4)),
		}, hintedChain(0, plan.GreaterEq, data.Int(4), []int{1, 0}, plan.AggSum, plan.AggMax)},
		{"interior-nulls", []data.Record{
			rec(data.Float(1.5), data.Str("a")), rec(data.Null(), data.Str("b")), rec(data.Float(2.5), data.Null()), rec(data.Float(0.5), data.Str("d")),
		}, hintedChain(0, plan.NotEq, data.Float(0.5), []int{1, 0}, plan.AggMin, plan.AggMin)},
		{"nan-operand", []data.Record{
			rec(data.Float(1)), rec(data.Float(nan)), rec(data.Float(-2)), rec(data.Float(3)),
		}, hintedChain(0, plan.LessEq, data.Float(nan), []int{0, 0}, plan.AggMax, plan.AggSum)},
		{"nan-values", []data.Record{
			rec(data.Float(nan)), rec(data.Float(1)), rec(data.Float(nan)), rec(data.Float(-2)),
		}, hintedChain(0, plan.GreaterEq, data.Float(0), []int{0, 0}, plan.AggMin, plan.AggMax)},
		{"mixed-kind-column", []data.Record{
			rec(data.Int(1), data.Int(10)), rec(data.Str("x"), data.Int(20)), rec(data.Float(2.5), data.Int(30)), rec(data.Bool(true), data.Int(40)),
		}, hintedChain(0, plan.Greater, data.Int(1), []int{0, 1}, plan.AggMax, plan.AggSum)},
		{"ragged-records", []data.Record{
			rec(data.Int(1), data.Int(10)), rec(data.Int(2)), rec(data.Int(3), data.Int(30), data.Int(300)), rec(data.Int(4), data.Int(40)),
		}, func(b *plan.Builder, src *plan.Operator) {
			b.Collect(b.ProjectCols(b.FilterWhere(src, 0, plan.NotEq, data.Int(3)), 0))
		}},
		{"string-sum-error", []data.Record{
			rec(data.Int(1), data.Str("a")), rec(data.Int(2), data.Str("b")), rec(data.Int(3), data.Str("c")),
		}, hintedChain(0, plan.Less, data.Int(9), []int{1}, plan.AggSum)},
		{"filter-to-sink", confRecords(40, 0), func(b *plan.Builder, src *plan.Operator) {
			b.Collect(b.FilterWhere(src, 1, plan.Less, data.Str("v2")))
		}},
		{"hinted-after-udf", confRecords(40, 3), func(b *plan.Builder, src *plan.Operator) {
			m := b.Map(src, func(r data.Record) (data.Record, error) {
				return data.NewRecord(r.Field(1), data.Int(r.Field(0).Int()*2), r.Field(0)), nil
			})
			f := b.FilterWhere(b.FilterWhere(m, 1, plan.Greater, data.Int(20)), 2, plan.Less, data.Int(35))
			b.Collect(b.AggregateCols(b.ProjectCols(f, 1, 0), plan.AggSum, plan.AggMax))
		}},
		{"chain-in-loop-body", confRecords(40, 0), func(b *plan.Builder, src *plan.Operator) {
			bb := plan.NewBodyBuilder("body")
			f := bb.FilterWhere(bb.LoopInput("st"), 0, plan.Less, data.Int(30))
			bb.Collect(bb.ProjectCols(bb.ProjectCols(f, 1, 0), 1, 0))
			b.Collect(b.AggregateCols(b.Repeat(src, 3, bb.MustBuild()), plan.AggMax, plan.AggMin))
		}},
	}
}

// runInAtom executes one in-atom case with the whole plan pinned to
// target, so source and chain share a task atom — the shape
// Context.Execute produces for a pinned plan, where no channel
// conversion stands between the source's rows and the hinted operator.
// columns keeps the source's records at rest in column form (confSource).
func runInAtom(t *testing.T, c inAtomCase, target engine.PlatformID, hinted, columns bool) (string, error) {
	t.Helper()
	b := plan.NewBuilder("inatom-" + c.name)
	c.build(b, confSource(b, "src", c.recs, columns))
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if !hinted {
		udfTwin(pp)
	}
	reg := confRegistry(t)
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{DisableRules: true, FixedPlatform: target})
	if err != nil {
		t.Fatalf("%s on %s: optimize: %v", c.name, target, err)
	}
	sources := 0
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindSource {
			sources++
		}
	}
	if n := len(ep.Atoms); n != sources && !strings.HasSuffix(c.name, "-in-loop-body") {
		t.Fatalf("%s on %s: plan split into %d atoms, want each of %d source(s) in one with its chain", c.name, target, n, sources)
	}
	for _, algo := range groupAlgos {
		if strings.HasSuffix(c.name, "-"+string(algo)) {
			forEachOp(ep.Physical, func(op *physical.Operator) {
				if op.Kind() == plan.KindGroupBy {
					op.Algo = algo
				}
			})
		}
	}
	res, err := executor.Run(ep, reg, executor.Options{})
	if err != nil {
		return "", err
	}
	return canonical(t, res.Records), nil
}

// TestInAtomHintedMatchesUDFTwin is the differential suite for hinted
// operators fed from inside their own atom: on every platform, at
// GOMAXPROCS 1 and 4, the plan as hinted and its UDF twin must agree
// byte for byte — or fail with the same error text.
func TestInAtomHintedMatchesUDFTwin(t *testing.T) {
	for _, c := range inAtomBattery() {
		t.Run(c.name, func(t *testing.T) {
			for _, target := range confPlatforms {
				for _, workers := range confWorkers {
					setWorkers(t, workers)
					want, wantErr := runInAtom(t, c, target, false, false)
					got, gotErr := runInAtom(t, c, target, true, false)
					switch {
					case (wantErr == nil) != (gotErr == nil), wantErr != nil && wantErr.Error() != gotErr.Error():
						t.Errorf("%s on %s at GOMAXPROCS %d: UDF twin failed with %v, hinted plan with %v", c.name, target, workers, wantErr, gotErr)
					case got != want:
						t.Errorf("%s on %s at GOMAXPROCS %d: hinted plan diverges from its UDF twin", c.name, target, workers)
					}
					if c.name == "string-sum-error" && wantErr == nil {
						t.Errorf("%s on %s: summing strings did not fail", c.name, target)
					}
				}
			}
		})
	}
}
