package javaengine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"rheem/internal/core/batch"
	"rheem/internal/core/engine"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// The column maps of the differential suites, over boundaryRecs' (id int,
// value float, aux int, w float) rows, and beside each the row Map a
// caller without MapColumns would have written by hand. scale reads the
// two columns nothing is planted in and writes one column of every typed
// kind; again reads what scale wrote; bump reads the value column, where
// the NaN, the nulls and the integer sit.
var labels = [...]string{"a", "b", "c"}

var columnMaps = map[string]plan.ColumnMap{
	"scale": {
		In:  []plan.ColumnIn{{Field: 0, Kind: batch.ColInt64}, {Field: 3, Kind: batch.ColFloat64}},
		Out: []batch.ColKind{batch.ColInt64, batch.ColFloat64, batch.ColString, batch.ColBool},
		Fn: func(n int, in, out []batch.Column) error {
			for i := 0; i < n; i++ {
				id, w := in[0].Int64s[i], in[1].Float64s[i]
				out[0].Int64s[i], out[1].Float64s[i] = id*2+1, w/2
				out[2].Strings[i], out[3].Bools[i] = labels[id%3], w > 0
			}
			return nil
		},
	},
	"again": {
		In:  []plan.ColumnIn{{Field: 1, Kind: batch.ColFloat64}, {Field: 0, Kind: batch.ColInt64}, {Field: 2, Kind: batch.ColString}},
		Out: []batch.ColKind{batch.ColString, batch.ColFloat64},
		Fn: func(n int, in, out []batch.Column) error {
			for i := 0; i < n; i++ {
				out[0].Strings[i], out[1].Float64s[i] = in[2].Strings[i]+"!", in[0].Float64s[i]+float64(in[1].Int64s[i])
			}
			return nil
		},
	},
	"bump": {
		In:  []plan.ColumnIn{{Field: 1, Kind: batch.ColFloat64}},
		Out: []batch.ColKind{batch.ColFloat64},
		Fn: func(_ int, in, out []batch.Column) error {
			for i, v := range in[0].Float64s {
				out[0].Float64s[i] = v + 1
			}
			return nil
		},
	},
}

var rowMaps = map[string]plan.MapFunc{
	"scale": func(r data.Record) (data.Record, error) {
		id, w := r.Field(0).Int(), r.Field(3).Float()
		return data.NewRecord(data.Int(id*2+1), data.Float(w/2), data.Str(labels[id%3]), data.Bool(w > 0)), nil
	},
	"again": func(r data.Record) (data.Record, error) {
		return data.NewRecord(data.Str(r.Field(2).Str()+"!"), data.Float(r.Field(1).Float()+float64(r.Field(0).Int()))), nil
	},
	"bump": func(r data.Record) (data.Record, error) {
		return data.NewRecord(data.Float(r.Field(1).Float() + 1)), nil
	},
}

// mapper adds the named map to a plan: as columns, or as its row twin.
type mapper func(b *plan.Builder, in *plan.Operator, name string) *plan.Operator

func asColumns(b *plan.Builder, in *plan.Operator, name string) *plan.Operator {
	return b.MapColumns(in, columnMaps[name])
}

func asRows(b *plan.Builder, in *plan.Operator, name string) *plan.Operator {
	return b.Map(in, rowMaps[name])
}

// mapChains are the shapes a column map takes in a pipeline: first and
// after a filter (its inputs views, or copies through the selection
// vector), read by every kind of consumer — a fold, a grouping, a row
// operator, the sink, two readers at once — and by the stages that can
// follow it: a filter and a projection over computed columns, a second
// map. guarded puts bump behind a filter that drops every row it would
// fail on — the nulls and the integer sit in rows whose aux is null or
// negative — so those windows take the row form, a surviving row at a time.
func mapChains(m mapper) map[string]func(*plan.Builder, *plan.Operator) *plan.Operator {
	tag := func(r data.Record) (data.Record, error) { return r.Append(data.Str("udf")), nil }
	filter := func(b *plan.Builder, in *plan.Operator) *plan.Operator {
		return b.FilterWhere(in, 1, plan.LessEq, data.Float(50))
	}
	folds := []plan.AggFn{plan.AggSum, plan.AggMax, plan.AggMin, plan.AggFirst}
	group := func(b *plan.Builder, s *plan.Operator) *plan.Operator {
		return b.GroupAggregate(m(b, filter(b, s), "scale"), []int{2}, everyFold(2, 1)...)
	}
	return map[string]func(*plan.Builder, *plan.Operator) *plan.Operator{
		"map/sink": func(b *plan.Builder, s *plan.Operator) *plan.Operator { return m(b, s, "scale") },
		"map/aggregate": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.AggregateCols(m(b, s, "scale"), folds...)
		},
		"filter/map/aggregate": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.AggregateCols(m(b, filter(b, s), "scale"), folds...)
		},
		"filter/map/group":        group,
		"filter/map/group/sorted": group,
		"filter/map/udf-map": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.Map(m(b, filter(b, s), "scale"), tag)
		},
		"filter/map/sink": func(b *plan.Builder, s *plan.Operator) *plan.Operator { return m(b, filter(b, s), "scale") },
		"map/filter/project/sink": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.ProjectCols(b.FilterWhere(m(b, s, "scale"), 3, plan.Eq, data.Bool(true)), 1, 0, 2)
		},
		"filter/map/filter/map/group-global": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			f := b.FilterWhere(m(b, filter(b, s), "scale"), 0, plan.Greater, data.Int(window))
			return b.GroupAggregate(m(b, f, "again"), nil, everyFold(0, 1)[1:]...)
		},
		"map/fan-out": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			p := m(b, s, "scale")
			return b.Union(b.AggregateCols(p, folds...), b.Map(p, tag))
		},
		"guarded/map/sink": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return m(b, b.FilterWhere(s, 2, plan.GreaterEq, data.Int(0)), "bump")
		},
		"guarded/map/aggregate": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.AggregateCols(m(b, b.FilterWhere(s, 2, plan.GreaterEq, data.Int(0)), "bump"), plan.AggMax)
		},
	}
}

// failingChains are the column maps that must fail: bump over the value
// column unguarded (a null in window 2, an integer in window 3), a map
// declaring a kind its column never has, one reading a field no record
// has, and a function that returns an error for one row of window 3.
func failingChains() map[string]func(*plan.Builder, *plan.Operator) *plan.Operator {
	ints := []batch.ColKind{batch.ColInt64}
	copyInts := func(_ int, in, out []batch.Column) error { copy(out[0].Int64s, in[0].Int64s); return nil }
	return map[string]func(*plan.Builder, *plan.Operator) *plan.Operator{
		"errors/map-null": func(b *plan.Builder, s *plan.Operator) *plan.Operator { return asColumns(b, s, "bump") },
		"errors/map-wrong-kind": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.MapColumns(s, plan.ColumnMap{In: []plan.ColumnIn{{Field: 3, Kind: batch.ColInt64}}, Out: ints, Fn: copyInts})
		},
		"errors/map-no-such-field": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.MapColumns(b.ProjectCols(s, 0, 2), plan.ColumnMap{In: []plan.ColumnIn{{Field: 2, Kind: batch.ColInt64}}, Out: ints, Fn: copyInts})
		},
		"errors/map-fn": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.AggregateCols(b.MapColumns(s, plan.ColumnMap{In: []plan.ColumnIn{{Field: 0, Kind: batch.ColInt64}}, Out: ints,
				Fn: func(_ int, in, _ []batch.Column) error {
					for _, id := range in[0].Int64s {
						if id == 2*window+5 {
							return errors.New("row refused")
						}
					}
					return nil
				}}), plan.AggFirst)
		},
	}
}

// failure is what an error says from the failing map's own naming of
// itself on: a lazy chain fails under the operator that forced it, an
// eager one under the map (which the atom runner names once more), and
// that prefix is all they may differ in.
func failure(err error) string {
	if err == nil {
		return ""
	}
	if i := strings.LastIndex(err.Error(), "Map#"); i >= 0 {
		return err.Error()[i:]
	}
	return err.Error()
}

// boundaryInputs is an n-row input in the three shapes a java atom is fed.
func boundaryInputs(n int, ragged bool) map[string][]any {
	recs := boundaryRecs(n, ragged)
	whole := batch.FromRecords(recs)
	inputs := map[string][]any{"rows": {recs}, "batch": {whole}}
	for s := 0; s < 4; s++ {
		inputs["shards"] = append(inputs["shards"], whole.Slice(s*n/4, (s+1)*n/4))
	}
	return inputs
}

// TestMapColumnsMatchesRowTwin runs every chain with its maps as columns
// against the same chain with the hand-written row maps, over inputs one
// row short of a window, one window, one over, and two and a row — rows,
// a batch, and shard views of a batch: the same bytes. (Against the row
// UDF derived from the column function, TestPipelineWindowBoundaries
// runs the same chains.)
func TestMapColumnsMatchesRowTwin(t *testing.T) {
	columns, rows := mapChains(asColumns), mapChains(asRows)
	for _, n := range []int{window - 1, window, window + 1, 2*window + 1} {
		for _, ragged := range []bool{false, true} {
			for shape, ins := range boundaryInputs(n, ragged) {
				for name := range columns {
					for i, in := range ins {
						want, wantErr := runChain(t, data.CloneRecords(asRecords(in)), true, name, rows[name])
						got, gotErr := runChain(t, in, true, name, columns[name])
						id := fmt.Sprintf("n=%d ragged=%v %s over %s[%d]", n, ragged, name, shape, i)
						if wantErr != nil || gotErr != nil {
							t.Errorf("%s: row twin failed with %v, column map with %v", id, wantErr, gotErr)
						} else if !bytes.Equal(want, got) {
							t.Errorf("%s: column map diverges from its hand-written row twin", id)
						}
					}
				}
			}
		}
	}
}

// TestMapColumnsRunsOncePerWindow: the function is called once per window
// with the rows the filter ahead of it kept, dense, and never sees one it
// dropped — it fails on any such row, and the nulls among them do not
// cost the window its column form — while a ragged window reaches it one
// surviving row at a time.
func TestMapColumnsRunsOncePerWindow(t *testing.T) {
	for _, ragged := range []bool{false, true} {
		recs := boundaryRecs(3*window+7, ragged)
		survivors := count(recs, 500)
		calls, seen := 0, 0
		build := func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.MapColumns(b.FilterWhere(s, 2, plan.Less, data.Int(500)), plan.ColumnMap{
				In:  []plan.ColumnIn{{Field: 2, Kind: batch.ColInt64}},
				Out: []batch.ColKind{batch.ColInt64},
				Fn: func(n int, in, out []batch.Column) error {
					calls, seen = calls+1, seen+n
					if len(in[0].Int64s) != n || len(out[0].Int64s) != n {
						return fmt.Errorf("a %d-row window with %d input and %d output rows", n, len(in[0].Int64s), len(out[0].Int64s))
					}
					for i, aux := range in[0].Int64s {
						if aux >= 500 {
							return fmt.Errorf("saw aux %d, which the filter dropped", aux)
						}
						out[0].Int64s[i] = aux
					}
					return nil
				},
			})
		}
		for shape, ins := range boundaryInputs(len(recs), ragged) {
			if shape == "shards" {
				continue
			}
			calls, seen = 0, 0
			if _, err := runChain(t, ins[0], true, "once", build); err != nil {
				t.Fatalf("ragged=%v over %s: %v", ragged, shape, err)
			}
			// Ragged rows sit in windows 1 to 3 (a batch of them is row-backed),
			// the fourth is clean.
			wantCalls := 4
			if ragged {
				wantCalls = 1 + survivors - count(recs[3*window:], 500)
			}
			if seen != survivors || calls != wantCalls {
				t.Errorf("ragged=%v over %s: the function saw %d rows in %d calls, want %d rows in %d", ragged, shape, seen, calls, survivors, wantCalls)
			}
		}
	}
}

// count is how many of recs a filter aux < below keeps.
func count(recs []data.Record, below int64) (n int) {
	for _, r := range recs {
		if v := r.Field(2); !v.IsNull() && v.Int() < below {
			n++
		}
	}
	return n
}

// TestMapColumnsFailureNamesOperator: an error from the column function
// and a panic in it fail the atom with the map named, whichever operator
// forced the chain — and the panic is a Fatal error with its stack, like
// any operator's.
func TestMapColumnsFailureNamesOperator(t *testing.T) {
	for _, ragged := range []bool{false, true} { // column form, and a window through the row form
		recs := boundaryRecs(window+9, ragged)
		for name, fn := range map[string]func(int, []batch.Column, []batch.Column) error{
			"error": func(int, []batch.Column, []batch.Column) error { return errors.New("boom") },
			"panic": func(_ int, in, _ []batch.Column) error { _ = in[0].Float64s[len(in[0].Float64s)]; return nil },
		} {
			build := func(b *plan.Builder, s *plan.Operator) *plan.Operator {
				m := b.MapColumns(s, plan.ColumnMap{In: []plan.ColumnIn{{Field: 3, Kind: batch.ColFloat64}}, Out: []batch.ColKind{batch.ColFloat64}, Fn: fn})
				return b.AggregateCols(m, plan.AggSum)
			}
			for shape, in := range map[string]any{"rows": recs, "batch": batch.FromRecords(recs)} {
				_, err := runChain(t, in, true, name, build)
				want := "Reduce#2: Map#1: boom"
				if name == "panic" {
					want = "Reduce#2 panicked: Map#1: runtime error: index out of range"
				}
				if err == nil || !engine.IsFatal(err) || !strings.Contains(err.Error(), want) {
					t.Errorf("%s over %s (ragged=%v): got %v, want a fatal error saying %q", name, shape, ragged, err, want)
				}
				if name == "panic" && !strings.Contains(err.Error(), "mapcolumns_test.go") {
					t.Errorf("%s over %s: the panic's stack does not reach the function: %v", name, shape, err)
				}
			}
		}
	}
}

// BenchmarkMapColumns is a column map — two float columns in, their
// product and a flag out — against the row Map written by hand, below the
// atom runner over 1 M rows: from rows (the in-atom shape) and from a
// batch (an external input), into a sum, so what is timed is the map and
// not the materialising of its output. ns/row is per input row.
func BenchmarkMapColumns(b *testing.B) {
	const rows = 1_000_000
	recs := make([]data.Record, rows)
	for i := range recs {
		recs[i] = data.NewRecord(data.Float(float64(i%1000)/8), data.Float(float64(i%7)))
	}
	pb := plan.NewBuilder("bench")
	src := pb.Source("s", plan.Collection(nil))
	columns := pb.MapColumns(src, plan.ColumnMap{
		In:  []plan.ColumnIn{{Field: 0, Kind: batch.ColFloat64}, {Field: 1, Kind: batch.ColFloat64}},
		Out: []batch.ColKind{batch.ColFloat64, batch.ColInt64},
		Fn: func(_ int, in, out []batch.Column) error {
			for i, x := range in[0].Float64s {
				y := in[1].Float64s[i]
				out[0].Float64s[i], out[1].Int64s[i] = x*y, 1
			}
			return nil
		},
	})
	twin := pb.Map(src, func(r data.Record) (data.Record, error) {
		return data.NewRecord(data.Float(r.Field(0).Float()*r.Field(1).Float()), data.Int(1)), nil
	})
	sum := pb.AggregateCols(columns, plan.AggSum, plan.AggSum)
	pb.Collect(pb.Union(sum, pb.AggregateCols(twin, plan.AggSum, plan.AggSum)))
	pb.MustBuild()
	for _, in := range []struct {
		name string
		ds   any
	}{{"rows", recs}, {"batch", batch.FromRecords(recs)}} {
		for _, m := range []struct {
			name string
			lop  *plan.Operator
		}{{"columns", columns}, {"row-twin", twin}} {
			b.Run(in.name+"/"+m.name, func(b *testing.B) {
				ctx, d := context.Background(), &datasetOps{}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ds, err := d.ExecOp(ctx, physOp(m.lop), []any{in.ds})
					if err == nil {
						ds, err = d.ExecOp(ctx, physOp(sum), []any{ds})
					}
					if out, _ := ds.([]data.Record); err != nil || len(out) != 1 || out[0].Field(1).Int() != rows {
						b.Fatal(ds, err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			})
		}
	}
}
