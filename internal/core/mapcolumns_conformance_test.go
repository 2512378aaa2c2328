// Conformance of the columnar UDF form (plan.MapColumns). Its row UDF is
// derived from the column function, so dropping the hint (udfTwin) proves
// less than it does for the declarative forms; the reference here is the
// row Map a caller without MapColumns would have written by hand.

package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rheem/internal/core/batch"
	"rheem/internal/core/engine"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
)

// mapConfRecords is n (id int, value float or null, aux int, w float)
// rows; every float is a small multiple of ½, so sums are exact in
// whatever order a platform or its windows add them.
func mapConfRecords(n int) []data.Record {
	out := make([]data.Record, n)
	for i := range out {
		value := data.Float(float64(i%97)/2 - 10)
		if i%1000 == 7 {
			value = data.Null()
		}
		out[i] = data.NewRecord(data.Int(int64(i)), value, data.Int(int64(i%13-3)), data.Float(float64(i%31)-9.5))
	}
	return out
}

var mapConfLabels = [...]string{"lo", "mid", "hi"}

// The column maps of the suite and their hand-written row twins: norm
// reads id and w, where nothing is null, and writes a column of every
// typed kind; root reads value, which is null every thousandth row and
// negative in many — it fails on both, so it runs behind a filter.
var mapConfColumns = map[string]plan.ColumnMap{
	"norm": {
		In:  []plan.ColumnIn{{Field: 0, Kind: batch.ColInt64}, {Field: 3, Kind: batch.ColFloat64}},
		Out: []batch.ColKind{batch.ColInt64, batch.ColFloat64, batch.ColString, batch.ColBool},
		Fn: func(n int, in, out []batch.Column) error {
			for i := 0; i < n; i++ {
				id, w := in[0].Int64s[i], in[1].Float64s[i]
				out[0].Int64s[i], out[1].Float64s[i] = id%5, max(2*w, 0)
				out[2].Strings[i], out[3].Bools[i] = mapConfLabels[id%3], w > 0
			}
			return nil
		},
	},
	"root": {
		In:  []plan.ColumnIn{{Field: 1, Kind: batch.ColFloat64}, {Field: 0, Kind: batch.ColInt64}},
		Out: []batch.ColKind{batch.ColInt64, batch.ColFloat64},
		Fn: func(_ int, in, out []batch.Column) error {
			for i, v := range in[0].Float64s {
				if v < 0 {
					return fmt.Errorf("no root of %v", v)
				}
				out[0].Int64s[i], out[1].Float64s[i] = in[1].Int64s[i]%4, float64(int64(v*v))
			}
			return nil
		},
	},
}

var mapConfRows = map[string]plan.MapFunc{
	"norm": func(r data.Record) (data.Record, error) {
		id, w := r.Field(0).Int(), r.Field(3).Float()
		return data.NewRecord(data.Int(id%5), data.Float(max(2*w, 0)), data.Str(mapConfLabels[id%3]), data.Bool(w > 0)), nil
	},
	"root": func(r data.Record) (data.Record, error) {
		v := r.Field(1).Float() // panics on a null: the filter ahead must have dropped it
		if v < 0 {
			return data.Record{}, fmt.Errorf("no root of %v", v)
		}
		return data.NewRecord(data.Int(r.Field(0).Int()%4), data.Float(float64(int64(v*v)))), nil
	},
}

// mapConf is the column map name of the suite over in: MapColumns in the
// hinted plan, its hand-written row twin in the twins.
func (b *builder) mapConf(in *plan.Operator, name string) *plan.Operator {
	if b.x.form == twin || b.x.form == hand {
		return b.Map(in, mapConfRows[name])
	}
	return b.MapColumns(in, mapConfColumns[name])
}

// mapConfCases are the shapes a column map is read in: by the sink, a
// global fold, a grouping, a row operator, two readers at once, and — the
// map that fails on nulls and negatives — behind the hinted filter that
// drops both. Their sources are for the caller to set.
func mapConfCases() []bcase {
	tag := func(r data.Record) (data.Record, error) { return r.Append(data.Str("udf")), nil }
	folds := []plan.AggFn{plan.AggSum, plan.AggMax, plan.AggMin, plan.AggFirst}
	return []bcase{
		one("sink", nil, func(b *builder, s *plan.Operator) { b.Collect(b.mapConf(s, "norm")) }),
		one("aggregate", nil, func(b *builder, s *plan.Operator) {
			b.Collect(b.AggregateCols(b.ProjectCols(b.mapConf(s, "norm"), 0, 1, 2), folds[:3]...))
		}),
		one("group", nil, func(b *builder, s *plan.Operator) {
			b.Collect(b.GroupAggregate(b.mapConf(s, "norm"), []int{2, 0}, plan.GroupCol{Fn: plan.GroupKey, Field: 2}, plan.GroupCol{Fn: plan.GroupKey},
				plan.GroupCol{Fn: plan.GroupCountAll}, plan.GroupCol{Fn: plan.GroupSum, Field: 1}, plan.GroupCol{Fn: plan.GroupMax, Field: 1}))
		}),
		one("row-operator", nil, func(b *builder, s *plan.Operator) { b.Collect(b.Map(b.mapConf(s, "norm"), tag)) }),
		one("two-readers", nil, func(b *builder, s *plan.Operator) {
			p := b.ProjectCols(b.mapConf(s, "norm"), 0, 1, 2)
			b.Collect(b.Union(b.AggregateCols(p, folds[:3]...), b.Map(p, tag)))
		}),
		one("behind-filter", nil, func(b *builder, s *plan.Operator) {
			g := b.GroupAggregate(b.mapConf(b.FilterWhere(s, 1, plan.GreaterEq, data.Float(0)), "root"), []int{0},
				plan.GroupCol{Fn: plan.GroupKey}, plan.GroupCol{Fn: plan.GroupSum, Field: 1}, plan.GroupCol{Fn: plan.GroupCountAll})
			b.Collect(g)
		}),
	}
}

// TestMapColumnsConformance: a plan built on MapColumns gives the bytes
// its hand-written row twin gives fed to the single-node engine — fed from
// another platform and from a source in its own atom, over inputs that end
// one row short of a 4 096-row window, on its edge, one past it and one
// past the second.
func TestMapColumnsConformance(t *testing.T) {
	var cases []bcase
	for _, n := range []int{4095, 4096, 4097, 8193} {
		recs := mapConfRecords(n)
		for _, c := range mapConfCases() {
			c.name, c.recs, c.check = fmt.Sprintf("%s-%d", c.name, n), [][]data.Record{recs}, nonEmpty
			cases = append(cases, c)
		}
	}
	ref := cell{platform: javaengine.ID, workers: 1, form: hand, place: fed}
	newBattery(t, ref, grid(confPlatforms, cell{form: hinted, src: rows, place: fed}, cell{form: hinted, src: rows, place: pinned})).run(t, cases)
}

// TestMapColumnsFailuresConformance: what a column map cannot take as
// declared — a null, a record too short, a column of another kind — and
// what its function refuses or panics on fails the job fatally, everywhere
// with the same words from the map's name on: the row form decides all of
// them. A null in a row a filter dropped fails nothing.
func TestMapColumnsFailuresConformance(t *testing.T) {
	recs := mapConfRecords(4200) // value is null at 7, 1007, …; the second window holds 4 104 of them
	short := append(mapConfRecords(4100), data.NewRecord(data.Int(1), data.Float(1)))
	ints := []batch.ColKind{batch.ColInt64}
	value := plan.ColumnMap{In: []plan.ColumnIn{{Field: 1, Kind: batch.ColFloat64}}, Out: []batch.ColKind{batch.ColFloat64},
		Fn: func(_ int, in, out []batch.Column) error { copy(out[0].Float64s, in[0].Float64s); return nil }}
	// fails is a map whose function meets fail at row 4150.
	fails := func(fail func() error) plan.ColumnMap {
		return plan.ColumnMap{In: []plan.ColumnIn{{Field: 0, Kind: batch.ColInt64}}, Out: ints, Fn: func(_ int, in, out []batch.Column) error {
			for i, id := range in[0].Int64s {
				if id == 4150 {
					return fail()
				}
				out[0].Int64s[i] = id
			}
			return nil
		}}
	}
	var cases []bcase
	for _, c := range []struct {
		name string
		recs []data.Record
		spec plan.ColumnMap
		want string // the failure, from the map's name on
	}{
		{"null", recs, value, "Map#1: field 1 holds a null value, declared float64"},
		{"ragged-record", short, mapConfColumns["norm"], "Map#1: reads field 3 of a 2-field record"},
		{"wrong-kind", recs, plan.ColumnMap{In: []plan.ColumnIn{{Field: 3, Kind: batch.ColInt64}}, Out: ints, Fn: value.Fn},
			"Map#1: field 3 holds a float value, declared int64"},
		{"function-error", recs, fails(func() error { return errors.New("row refused") }), "Map#1: row refused"},
		{"function-panic", recs, fails(func() error { panic("row exploded") }), "Map#1: row exploded"},
	} {
		bc := one(c.name, c.recs, func(b *builder, s *plan.Operator) {
			b.Collect(b.AggregateCols(b.ProjectCols(b.MapColumns(s, c.spec), 0), plan.AggMax))
		})
		bc.wantErr, bc.check = c.want, func(t *testing.T, x cell, o outcome) {
			if !engine.IsFatal(o.err) || c.name == "function-panic" && !strings.Contains(o.err.Error(), "panicked") {
				t.Errorf("%v: failed with %v, want a fatal error, reported as a panic if it is one", x, o.err)
			}
		}
		cases = append(cases, bc)
	}
	newBattery(t, cell{}, grid(confPlatforms, cell{form: hinted, src: rows, place: pinned}, cell{form: hinted, src: columns, place: pinned})).run(t, cases)
}
