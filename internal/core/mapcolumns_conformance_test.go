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

// mapConfCases are the shapes a column map is read in: by the sink, a
// global fold, a grouping, a row operator, two readers at once, and — the
// map that fails on nulls and negatives — behind the hinted filter that
// drops both. columns builds them on MapColumns, otherwise on the twins.
func mapConfCases(columns bool) []inAtomCase {
	m := func(b *plan.Builder, in *plan.Operator, name string) *plan.Operator {
		if columns {
			return b.MapColumns(in, mapConfColumns[name])
		}
		return b.Map(in, mapConfRows[name])
	}
	tag := func(r data.Record) (data.Record, error) { return r.Append(data.Str("udf")), nil }
	folds := []plan.AggFn{plan.AggSum, plan.AggMax, plan.AggMin, plan.AggFirst}
	return []inAtomCase{
		{name: "sink", build: func(b *plan.Builder, s *plan.Operator) { b.Collect(m(b, s, "norm")) }},
		{name: "aggregate", build: func(b *plan.Builder, s *plan.Operator) {
			b.Collect(b.AggregateCols(b.ProjectCols(m(b, s, "norm"), 0, 1, 2), folds[:3]...))
		}},
		{name: "group", build: func(b *plan.Builder, s *plan.Operator) {
			b.Collect(b.GroupAggregate(m(b, s, "norm"), []int{2, 0}, plan.GroupCol{Fn: plan.GroupKey, Field: 2}, plan.GroupCol{Fn: plan.GroupKey},
				plan.GroupCol{Fn: plan.GroupCountAll}, plan.GroupCol{Fn: plan.GroupSum, Field: 1}, plan.GroupCol{Fn: plan.GroupMax, Field: 1}))
		}},
		{name: "row-operator", build: func(b *plan.Builder, s *plan.Operator) { b.Collect(b.Map(m(b, s, "norm"), tag)) }},
		{name: "two-readers", build: func(b *plan.Builder, s *plan.Operator) {
			p := b.ProjectCols(m(b, s, "norm"), 0, 1, 2)
			b.Collect(b.Union(b.AggregateCols(p, folds[:3]...), b.Map(p, tag)))
		}},
		{name: "behind-filter", build: func(b *plan.Builder, s *plan.Operator) {
			g := b.GroupAggregate(m(b, b.FilterWhere(s, 1, plan.GreaterEq, data.Float(0)), "root"), []int{0},
				plan.GroupCol{Fn: plan.GroupKey}, plan.GroupCol{Fn: plan.GroupSum, Field: 1}, plan.GroupCol{Fn: plan.GroupCountAll})
			b.Collect(g)
		}},
	}
}

// TestMapColumnsConformance: a plan built on MapColumns gives, on every
// platform at GOMAXPROCS 1 and 4, the bytes its hand-written row twin
// gives on the single-node engine — fed from another platform (on the
// java engine a batch channel) and from a source in its
// own atom (rows), over inputs that end one row short of a 4 096-row
// window, on its edge, one past it and one past the second.
func TestMapColumnsConformance(t *testing.T) {
	for _, n := range []int{4095, 4096, 4097, 8193} {
		recs := mapConfRecords(n)
		twins := mapConfCases(false)
		for i, c := range mapConfCases(true) {
			t.Run(fmt.Sprintf("%s-%d", c.name, n), func(t *testing.T) {
				external := func(c inAtomCase) confCase {
					return confCase{name: c.name, recs: recs, build: func(b *plan.Builder, s []*plan.Operator) { c.build(b, s[0]) }}
				}
				ref := runConformance(t, external(twins[i]), javaengine.ID, true)
				if ref == "" {
					t.Fatal("the row twin's reference output is empty")
				}
				c.recs = recs
				for _, target := range confPlatforms {
					for _, workers := range confWorkers {
						setWorkers(t, workers)
						if got := runConformance(t, external(c), target, true); got != ref {
							t.Errorf("on %s at GOMAXPROCS %d, fed from another platform: diverges from the row twin", target, workers)
						}
						if got, err := runInAtom(t, c, target, true, false); err != nil || got != ref {
							t.Errorf("on %s at GOMAXPROCS %d, source in the atom: diverges from the row twin (%v)", target, workers, err)
						}
					}
				}
			})
		}
	}
}

// TestMapColumnsFailuresConformance: what a column map cannot take as
// declared — a null, a record too short, a column of another kind — and
// what its function refuses or panics on fails the job on every platform,
// at GOMAXPROCS 1 and 4, with the same words from the map's name on: the row
// form is where all of them are decided, and the java engine's windows
// come to it. A null in a row a filter dropped fails nothing.
func TestMapColumnsFailuresConformance(t *testing.T) {
	recs := mapConfRecords(4200) // value is null at 7, 1007, …; the second window holds 4 104 of them
	short := append(mapConfRecords(4100), data.NewRecord(data.Int(1), data.Float(1)))
	ints := []batch.ColKind{batch.ColInt64}
	value := plan.ColumnMap{In: []plan.ColumnIn{{Field: 1, Kind: batch.ColFloat64}}, Out: []batch.ColKind{batch.ColFloat64},
		Fn: func(_ int, in, out []batch.Column) error { copy(out[0].Float64s, in[0].Float64s); return nil }}
	fails := func(fn func(int64) error) plan.ColumnMap {
		return plan.ColumnMap{In: []plan.ColumnIn{{Field: 0, Kind: batch.ColInt64}}, Out: ints, Fn: func(_ int, in, out []batch.Column) error {
			for i, id := range in[0].Int64s {
				if err := fn(id); err != nil {
					return err
				}
				out[0].Int64s[i] = id
			}
			return nil
		}}
	}
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
		{"function-error", recs, fails(func(id int64) error {
			if id == 4150 {
				return errors.New("row refused")
			}
			return nil
		}), "Map#1: row refused"},
		{"function-panic", recs, fails(func(id int64) error {
			if id == 4150 {
				panic("row exploded")
			}
			return nil
		}), "Map#1: row exploded"},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, target := range confPlatforms {
				for _, workers := range confWorkers {
					setWorkers(t, workers)
					for _, columns := range []bool{false, true} { // the source as rows, and at rest in column form
						_, err := runInAtom(t, inAtomCase{c.name, c.recs, func(b *plan.Builder, s *plan.Operator) {
							b.Collect(b.AggregateCols(b.ProjectCols(b.MapColumns(s, c.spec), 0), plan.AggMax))
						}}, target, true, columns)
						if err == nil || !engine.IsFatal(err) {
							t.Fatalf("on %s at GOMAXPROCS %d, columns=%v: got %v, want a fatal error", target, workers, columns, err)
						}
						got := err.Error()[max(strings.LastIndex(err.Error(), "Map#"), 0):]
						if line, _, _ := strings.Cut(got, "\n"); line != c.want {
							t.Errorf("on %s at GOMAXPROCS %d, columns=%v: failed with %q, want %q", target, workers, columns, err, c.want)
						}
						if c.name == "function-panic" && !strings.Contains(err.Error(), "panicked") {
							t.Errorf("on %s at GOMAXPROCS %d: the panic is not reported as one: %v", target, workers, err)
						}
					}
				}
			}
		})
	}
}
