// The cross-platform differential suites over the battery (battery_test.go):
// every operator kind is mapped on all three bundled platforms, and every
// plan shape gives one answer on each, at GOMAXPROCS 1 and 4. The java
// engine runs operators built with the column-hint helpers on vectorized
// kernels and the rest row by row, a property of the plan: so every hinted
// plan is held to its UDF twin too (udfTwin).
package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"rheem/internal/core/algo"
	"rheem/internal/core/batch"
	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
)

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
func fullBattery() []bcase {
	src := confRecords(97, 0)
	battery := append(conformanceBattery(),
		one("sample-zero", src, func(b *builder, s *plan.Operator) {
			sorted := b.Sort(s, modKey(97), false)
			b.Collect(b.Union(b.Sample(sorted, 0), b.Sample(sorted, 3))) // three records, none from the first
		}),
		// Past three 4 096-row windows: javaengine forces the chain a window
		// at a time on every core, sparksim fuses it into one pass per
		// partition of stages that fan out.
		one("udf-chain-windows", confRecords(3*4096+17, 0), func(b *builder, s *plan.Operator) {
			m := b.Map(s, func(r data.Record) (data.Record, error) {
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
		}),
		one("map-columns", src, func(b *builder, s *plan.Operator) { b.Collect(b.MapColumns(s, confColumnMap)) }),
		one("map-columns-chain", src, func(b *builder, s *plan.Operator) {
			m := b.MapColumns(b.FilterWhere(s, 1, plan.Less, data.Str("v2")), confColumnMap)
			b.Collect(b.AggregateCols(b.ProjectCols(b.FilterWhere(m, 2, plan.Eq, data.Bool(true)), 1, 0), plan.AggSum, plan.AggMax))
		}))
	for _, c := range groupedCases() {
		if len(c.recs[0]) > 0 {
			battery = append(battery, c)
		}
	}
	return battery
}

// groupedCases are the grouped aggregates a grouped kernel is most likely
// to get wrong — every key-table kind, every fold, nulls in keys and
// arguments, and the keys where equality, hashing and ordering could
// disagree — each under both grouping algorithms: the optimizer would
// sort the smallest inputs and hash the rest.
func groupedCases() []bcase {
	rec := data.NewRecord
	// every fold over field arg, led by key column key.
	folds := func(key, arg int) []plan.GroupCol {
		return []plan.GroupCol{
			{Fn: plan.GroupKey, Field: key}, {Fn: plan.GroupCountAll}, {Fn: plan.GroupCount, Field: arg},
			{Fn: plan.GroupSum, Field: arg}, {Fn: plan.GroupAvg, Field: arg}, {Fn: plan.GroupMin, Field: arg}, {Fn: plan.GroupMax, Field: arg},
		}
	}
	var cases []bcase
	group := func(name string, recs []data.Record, keys []int, out ...plan.GroupCol) {
		for _, a := range []physical.Algorithm{physical.HashGroupBy, physical.SortGroupBy} {
			c := one(fmt.Sprintf("group-agg-%s-%s", name, a), recs, func(b *builder, s *plan.Operator) { b.Collect(b.GroupAggregate(s, keys, out...)) })
			c.algo = a
			cases = append(cases, c)
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
	group("int-key", mixed, []int{0}, folds(0, 2)...)
	group("string-key", mixed, []int{1}, folds(1, 3)...)
	group("two-keys", mixed, []int{1, 0}, append(folds(0, 2), plan.GroupCol{Fn: plan.GroupKey, Field: 1})...)
	group("zero-keys", mixed, nil, append(folds(0, 2)[1:], folds(0, 3)[3:]...)...)
	group("count-star-alone", mixed, nil, plan.GroupCol{Fn: plan.GroupCountAll})
	group("empty-input", nil, []int{0}, folds(0, 1)...)
	group("empty-input-zero-keys", nil, nil, folds(0, 1)[1:]...)
	group("all-null-argument", []data.Record{rec(data.Int(1), data.Null()), rec(data.Int(2), data.Null()), rec(data.Int(1), data.Null())}, []int{0}, folds(0, 1)...)
	group("null-keys", []data.Record{rec(data.Int(1), data.Int(1)), rec(data.Null(), data.Int(2)), rec(data.Int(1), data.Int(4)), rec(data.Null(), data.Int(8))},
		[]int{0}, folds(0, 1)...)
	group("signed-zero-keys", []data.Record{rec(data.Float(negZero), data.Int(1)), rec(data.Float(0), data.Int(2)), rec(data.Float(1), data.Int(4)), rec(data.Float(negZero), data.Int(8))},
		[]int{0}, folds(0, 1)...)
	group("keys-beyond-2^53", []data.Record{rec(data.Int(big+1), data.Int(1)), rec(data.Int(big), data.Int(2)), rec(data.Int(big+1), data.Int(4)), rec(data.Int(-big-1), data.Int(8))},
		[]int{0}, folds(0, 0)...)
	group("nan-keys", []data.Record{rec(data.Float(nan), data.Int(1)), rec(data.Float(1), data.Int(2)), rec(data.Float(nan), data.Int(4)), rec(data.Float(1), data.Int(8))},
		[]int{0}, folds(0, 1)...)
	return cases
}

// conformanceBattery covers every operator kind mapped on more than
// one platform: the record-wise trio, every combining kind, grouping,
// sampling, the multi-input operators and both loop kinds (which also
// exercise Source, Sink and LoopInput on each platform).
func conformanceBattery() []bcase {
	src, two := confRecords(97, 0), [][]data.Record{confRecords(97, 0), confRecords(110, 1)}
	return []bcase{
		one("map", src, func(b *builder, s *plan.Operator) {
			b.Collect(b.Map(s, func(r data.Record) (data.Record, error) {
				return data.NewRecord(r.Field(0), data.Int(r.Field(0).Int()*3+1)), nil
			}))
		}),
		one("flatmap", src, func(b *builder, s *plan.Operator) {
			b.Collect(b.FlatMap(s, func(r data.Record) ([]data.Record, error) {
				out := make([]data.Record, r.Field(0).Int()%3) // variable fan-out, including dropping records
				for i := range out {
					out[i] = data.NewRecord(r.Field(0), data.Int(int64(i)))
				}
				return out, nil
			}))
		}),
		one("filter", src, func(b *builder, s *plan.Operator) {
			b.Collect(b.Filter(s, func(r data.Record) (bool, error) { return r.Field(0).Int()%3 != 1, nil }))
		}),
		one("reduce-by-key", src, func(b *builder, s *plan.Operator) {
			m := b.Map(s, func(r data.Record) (data.Record, error) {
				return data.NewRecord(data.Int(r.Field(0).Int()%7), data.Int(1)), nil
			})
			b.Collect(b.ReduceByKey(m, modKey(7), sumReduce))
		}),
		one("reduce-by-key-signed-zero", src, func(b *builder, s *plan.Operator) {
			// Equal(+0, -0) holds: hash partitioning, hash grouping and
			// sort grouping must all fold the two into one key.
			zeroKey := func(r data.Record) (data.Value, error) {
				return data.Float([]float64{0, math.Copysign(0, -1), 1}[r.Field(0).Int()%3]), nil
			}
			m := b.Map(s, func(r data.Record) (data.Record, error) {
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
		}),
		one("reduce", src, func(b *builder, s *plan.Operator) {
			b.Collect(b.Reduce(b.Map(s, func(r data.Record) (data.Record, error) { return data.NewRecord(data.Int(0), r.Field(0)), nil }), sumReduce))
		}),
		one("count", src, func(b *builder, s *plan.Operator) { b.Collect(b.Count(s)) }),
		one("distinct", src, func(b *builder, s *plan.Operator) {
			b.Collect(b.Distinct(b.Map(s, func(r data.Record) (data.Record, error) { return data.NewRecord(data.Int(r.Field(0).Int() % 11)), nil })))
		}),
		one("sort", src, func(b *builder, s *plan.Operator) { b.Collect(b.Sort(s, modKey(5), true)) }),
		one("group-by", src, func(b *builder, s *plan.Operator) {
			b.Collect(b.GroupBy(s, modKey(4), func(key data.Value, group []data.Record) ([]data.Record, error) {
				var sum int64
				for _, r := range group {
					sum += r.Field(0).Int()
				}
				return []data.Record{data.NewRecord(key, data.Int(sum), data.Int(int64(len(group))))}, nil
			}))
		}),
		// First-N sampling on every platform: deterministic, and the
		// upstream sort makes the N records platform-independent.
		one("sample", src, func(b *builder, s *plan.Operator) { b.Collect(b.Sample(b.Sort(s, modKey(97), false), 10)) }),
		{name: "union", recs: two, build: func(b *builder, s []*plan.Operator) { b.Collect(b.Union(s[0], s[1])) }},
		{name: "join", recs: two, build: func(b *builder, s []*plan.Operator) { b.Collect(b.Join(s[0], s[1], modKey(6), modKey(6))) }},
		{name: "cartesian", recs: two, build: func(b *builder, s []*plan.Operator) {
			l := b.Filter(s[0], func(r data.Record) (bool, error) { return r.Field(0).Int() < 8, nil })
			r := b.Filter(s[1], func(r data.Record) (bool, error) { return r.Field(0).Int() < 6, nil })
			b.Collect(b.Cartesian(l, r))
		}},
		{name: "theta-join", recs: two, build: func(b *builder, s []*plan.Operator) {
			l := b.Filter(s[0], func(r data.Record) (bool, error) { return r.Field(0).Int() < 12, nil })
			r := b.Filter(s[1], func(r data.Record) (bool, error) { return r.Field(0).Int() < 12, nil })
			b.Collect(b.ThetaJoin(l, r, func(a, bb data.Record) (bool, error) { return a.Field(0).Int() < bb.Field(0).Int(), nil }))
		}},
		// Declarative column predicate: vectorized on the java engine's
		// batch path, generated row UDF everywhere else.
		one("filter-col", src, func(b *builder, s *plan.Operator) { b.Collect(b.FilterWhere(s, 0, plan.GreaterEq, data.Int(30))) }),
		one("project-col", src, func(b *builder, s *plan.Operator) { b.Collect(b.ProjectCols(s, 1, 0)) }),
		one("agg-col", src, func(b *builder, s *plan.Operator) {
			m := b.Map(s, func(r data.Record) (data.Record, error) {
				k := r.Field(0).Int()
				return data.NewRecord(data.Int(k), data.Int(k*k%19), data.Float(float64(k)/4)), nil
			})
			b.Collect(b.AggregateCols(m, plan.AggSum, plan.AggMax, plan.AggMin))
		}),
		// The hot-path shape the columnar scenario benchmarks: filter →
		// project → aggregate, hinted end to end.
		one("columnar-chain", src, func(b *builder, s *plan.Operator) {
			b.Collect(b.AggregateCols(b.ProjectCols(b.FilterWhere(s, 0, plan.Less, data.Int(60)), 0), plan.AggSum))
		}),
		one("repeat", src, func(b *builder, s *plan.Operator) {
			bb := b.body("body")
			bb.Collect(bb.Map(bb.LoopInput("st"), func(r data.Record) (data.Record, error) {
				return data.NewRecord(data.Int(r.Field(0).Int()+1), r.Field(1)), nil
			}))
			b.Collect(b.Repeat(s, 3, bb.MustBuild()))
		}),
		one("do-while", src, func(b *builder, s *plan.Operator) {
			bb := b.body("body")
			bb.Collect(bb.Map(bb.LoopInput("st"), func(r data.Record) (data.Record, error) {
				return data.NewRecord(data.Int(r.Field(0).Int()*2), r.Field(1)), nil
			}))
			b.Collect(b.DoWhile(s, func(iter int, recs []data.Record) (bool, error) { return iter < 3, nil }, 10, bb.MustBuild()))
		}),
	}
}

// nonEmpty fails a run that succeeds with no records: the cases it is set
// on are built to produce output, so an empty one is broken.
func nonEmpty(t *testing.T, x cell, o outcome) {
	if o.err == nil && o.ans == "" {
		t.Fatalf("%v: the answer is empty", x)
	}
}

// TestCrossPlatformConformance is the differential suite: for every
// plan shape, every platform × workers must reproduce the java
// reference output at GOMAXPROCS 1, canonicalized, byte for byte.
func TestCrossPlatformConformance(t *testing.T) {
	cases := fullBattery()
	for i := range cases {
		cases[i].check = nonEmpty
	}
	newBattery(t, cell{platform: javaengine.ID, workers: 1}, grid(confPlatforms, cell{form: hinted, src: rows, place: fed})).run(t, cases)
}

// TestCrossPlatformConformanceColumnar: on the java engine, the battery
// as written — hinted operators on the vectorized kernels, fed a batch —
// gives the bytes its UDF twin gives row by row at GOMAXPROCS 1 (a case
// without a hint is its own twin).
func TestCrossPlatformConformanceColumnar(t *testing.T) {
	ref := cell{platform: javaengine.ID, workers: 1, form: twin}
	newBattery(t, ref, grid([]engine.PlatformID{javaengine.ID}, cell{form: hinted, src: rows, place: fed})).run(t, fullBattery())
}

// TestConformanceCoversAllSharedKinds guards the battery itself: an
// operator kind mapped on two or more platforms, or with a row form in
// algo.Exec (which every platform then runs), must be in a plan the
// runner builds of the battery.
func TestConformanceCoversAllSharedKinds(t *testing.T) {
	exercised := map[plan.OpKind]bool{}
	for _, c := range fullBattery() {
		pp, err := physical.FromLogical(c.plan("cover-"+c.name, cell{}))
		if err != nil {
			t.Fatal(err)
		}
		forEachOp(pp, func(op *physical.Operator) { exercised[op.Kind()] = true })
	}
	mappings := confRegistry(t).Mappings()
	for kind := plan.KindSource; kind <= plan.KindSink; kind++ {
		on := map[engine.PlatformID]bool{}
		for _, m := range mappings {
			if m.Kind == kind {
				on[m.Platform] = true
			}
		}
		// Over no rows only the dispatch runs: an error is "no row form".
		_, err := algo.Exec(&physical.Operator{Logical: plan.NewSynthetic(kind, "probe", nil)}, nil, nil)
		if !exercised[kind] && (len(on) >= 2 || err == nil) {
			t.Errorf("operator kind %s is mapped on %d platforms, or has a row form in algo.Exec, but is missing from the conformance battery", kind, len(on))
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
		for j := 0; j < 5; j++ {
			for i, pl := range confPlatforms {
				est, act := time.Millisecond, 200*time.Millisecond
				if i%2 == 1 {
					est, act = act, est
				}
				atoms = append(atoms, cost.AtomObs{Kind: k.String(), Platform: string(pl), Estimated: est, Actual: act})
			}
			cards = append(cards, cost.CardObs{Kind: k.String(), Estimated: 10, Actual: 100_000})
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

// TestConformanceCalibrationDifferential: calibration is a cost lever,
// never a semantics one. Every case gives on every platform, calibrated
// empty or warmed with extreme hostile factors, the bytes it gives
// uncalibrated at GOMAXPROCS 1 — and the executor never feeds a calibrator.
func TestConformanceCalibrationDifferential(t *testing.T) {
	warm := warmedConfCalibrator(t)
	empty := cost.NewCalibrator(cost.CalibratorConfig{})
	cells := grid(confPlatforms, cell{form: hinted, src: rows, place: fed, cal: empty}, cell{form: hinted, src: rows, place: fed, cal: warm})
	newBattery(t, cell{workers: 1}, cells).run(t, fullBattery())
	if warm.Folds() != 1 {
		t.Errorf("differential runs folded into the calibrator (folds=%d, want 1): the executor must never feed it", warm.Folds())
	}
}

// hintedChain is the hot-path shape: filter → project → aggregate.
func hintedChain(field int, op plan.CompareOp, operand data.Value, cols []int, fns ...plan.AggFn) func(*builder, *plan.Operator) {
	return func(b *builder, src *plan.Operator) {
		f := b.FilterWhere(src, field, op, operand)
		b.Collect(b.AggregateCols(b.ProjectCols(f, cols...), fns...))
	}
}

// inAtomBattery holds the inputs a kernel is most likely to get wrong
// when it is handed rows from inside its own atom rather than a batch a
// converter built. Cases whose UDF panics (a predicate field or a
// projection index outside the record) are not here: javaengine's
// TestHintedFieldOutsideInput pins those at the platform boundary.
func inAtomBattery() []bcase {
	return append(append(hintedChainBattery(), groupedCases()...),
		one("map-columns-in-chain", confRecords(40, 3), func(b *builder, src *plan.Operator) {
			m := b.MapColumns(b.FilterWhere(src, 0, plan.Less, data.Int(35)), confColumnMap)
			b.Collect(b.GroupAggregate(m, []int{2}, plan.GroupCol{Fn: plan.GroupKey, Field: 2}, plan.GroupCol{Fn: plan.GroupSum, Field: 1}, plan.GroupCol{Fn: plan.GroupMin, Field: 0}))
		}),
		// A grouped aggregate reading a hinted chain, and a hinted filter
		// (HAVING's shape) reading it.
		one("group-agg-in-chain", groupedCases()[0].recs[0], func(b *builder, src *plan.Operator) {
			f := b.FilterWhere(b.FilterWhere(src, 3, plan.GreaterEq, data.Int(-2)), 0, plan.NotEq, data.Int(4))
			g := b.GroupAggregate(b.ProjectCols(f, 2, 1), []int{1}, plan.GroupCol{Fn: plan.GroupKey, Field: 1},
				plan.GroupCol{Fn: plan.GroupCountAll}, plan.GroupCol{Fn: plan.GroupAvg, Field: 0})
			b.Collect(b.FilterWhere(g, 1, plan.Greater, data.Int(9)))
		}))
}

func hintedChainBattery() []bcase {
	nan := math.NaN()
	rec := data.NewRecord
	stringSum := one("string-sum-error", []data.Record{
		rec(data.Int(1), data.Str("a")), rec(data.Int(2), data.Str("b")), rec(data.Int(3), data.Str("c")),
	}, hintedChain(0, plan.Less, data.Int(9), []int{1}, plan.AggSum))
	stringSum.wantErr = "cannot sum string and string values"
	return []bcase{
		one("empty-input", nil, hintedChain(0, plan.Less, data.Int(5), []int{0}, plan.AggSum)),
		one("one-row", []data.Record{rec(data.Int(3), data.Str("a"))},
			hintedChain(0, plan.Less, data.Int(5), []int{1, 0}, plan.AggFirst, plan.AggSum)),
		one("leading-nulls", []data.Record{rec(data.Null(), data.Int(1)), rec(data.Null(), data.Int(2)), rec(data.Int(4), data.Int(3)), rec(data.Int(9), data.Int(4))},
			hintedChain(0, plan.GreaterEq, data.Int(4), []int{1, 0}, plan.AggSum, plan.AggMax)),
		one("interior-nulls", []data.Record{rec(data.Float(1.5), data.Str("a")), rec(data.Null(), data.Str("b")), rec(data.Float(2.5), data.Null()), rec(data.Float(0.5), data.Str("d"))},
			hintedChain(0, plan.NotEq, data.Float(0.5), []int{1, 0}, plan.AggMin, plan.AggMin)),
		one("nan-operand", []data.Record{rec(data.Float(1)), rec(data.Float(nan)), rec(data.Float(-2)), rec(data.Float(3))},
			hintedChain(0, plan.LessEq, data.Float(nan), []int{0, 0}, plan.AggMax, plan.AggSum)),
		one("nan-values", []data.Record{rec(data.Float(nan)), rec(data.Float(1)), rec(data.Float(nan)), rec(data.Float(-2))},
			hintedChain(0, plan.GreaterEq, data.Float(0), []int{0, 0}, plan.AggMin, plan.AggMax)),
		one("mixed-kind-column", []data.Record{rec(data.Int(1), data.Int(10)), rec(data.Str("x"), data.Int(20)), rec(data.Float(2.5), data.Int(30)), rec(data.Bool(true), data.Int(40))},
			hintedChain(0, plan.Greater, data.Int(1), []int{0, 1}, plan.AggMax, plan.AggSum)),
		one("ragged-records", []data.Record{
			rec(data.Int(1), data.Int(10)), rec(data.Int(2)), rec(data.Int(3), data.Int(30), data.Int(300)), rec(data.Int(4), data.Int(40)),
		}, func(b *builder, src *plan.Operator) {
			b.Collect(b.ProjectCols(b.FilterWhere(src, 0, plan.NotEq, data.Int(3)), 0))
		}),
		stringSum,
		one("filter-to-sink", confRecords(40, 0), func(b *builder, src *plan.Operator) {
			b.Collect(b.FilterWhere(src, 1, plan.Less, data.Str("v2")))
		}),
		one("hinted-after-udf", confRecords(40, 3), func(b *builder, src *plan.Operator) {
			m := b.Map(src, func(r data.Record) (data.Record, error) {
				return data.NewRecord(r.Field(1), data.Int(r.Field(0).Int()*2), r.Field(0)), nil
			})
			f := b.FilterWhere(b.FilterWhere(m, 1, plan.Greater, data.Int(20)), 2, plan.Less, data.Int(35))
			b.Collect(b.AggregateCols(b.ProjectCols(f, 1, 0), plan.AggSum, plan.AggMax))
		}),
		one("chain-in-loop-body", confRecords(40, 0), func(b *builder, src *plan.Operator) {
			bb := b.body("body")
			f := bb.FilterWhere(bb.LoopInput("st"), 0, plan.Less, data.Int(30))
			bb.Collect(bb.ProjectCols(bb.ProjectCols(f, 1, 0), 1, 0))
			b.Collect(b.AggregateCols(b.Repeat(src, 3, bb.MustBuild()), plan.AggMax, plan.AggMin))
		}),
	}
}

// TestInAtomHintedMatchesUDFTwin is the differential suite for hinted
// operators fed from inside their own atom: on every platform, at
// GOMAXPROCS 1 and 4, the plan as hinted and its UDF twin must agree
// byte for byte — or fail with the same error text.
func TestInAtomHintedMatchesUDFTwin(t *testing.T) {
	newBattery(t, cell{form: twin}, grid(confPlatforms, cell{form: hinted, src: rows, place: pinned})).run(t, inAtomBattery())
}
