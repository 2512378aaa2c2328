package javaengine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rheem/internal/core/batch"
	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// scribbleScratch is the lease's poison: every buffer release keeps is
// overwritten before it is kept — selections and group ids with a row
// no window has, numbers with a pattern, strings, values, keys and
// accumulators with a marker — so a result that aliases leased memory, or
// a forcing that reads a buffer before writing it, no longer agrees with
// the UDF twin (or indexes out of range).
func scribbleScratch(s *scratch) {
	mark := data.Str("scribbled")
	flood(s.sel[:], math.MaxInt32)
	w, g := &s.win, &s.group
	for _, cols := range [][]batch.Column{w.store, w.maps.calc, w.maps.dense} {
		for i := range cols {
			c := &cols[i]
			flood(c.Int64s, 0x5c5c5c5c5c5c5c5c)
			flood(c.Float64s, -12345.678)
			flood(c.Strings, "scribbled")
			flood(c.Bools, true)
			flood(c.Any, mark)
		}
	}
	flood(w.maps.vals, mark)
	flood(w.reads, outside)
	flood(g.cols, outside)
	flood(g.gid, math.MaxInt32)
	flood(g.keys, mark)
	for _, st := range g.accs[:cap(g.accs)] {
		flood(st, plan.GroupState{N: 1 << 40, Sum: 1e300, Best: mark})
	}
	flood(g.buf, 0xff)
}

// flood overwrites s to its capacity.
func flood[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// TestLeaseScribbled runs the differential suites with every released
// scratch poisoned: the window-boundary battery (every consumer, every
// input shape, the error paths that release mid-job), the column maps
// against their hand-written row twins, and the grouped kernels.
func TestLeaseScribbled(t *testing.T) {
	f := scribbleScratch
	scribble.Store(&f)
	defer scribble.Store(nil)
	t.Run("window-boundaries", TestPipelineWindowBoundaries)
	t.Run("map-columns", TestMapColumnsMatchesRowTwin)
	t.Run("map-once-per-window", TestMapColumnsRunsOncePerWindow)
	t.Run("group", TestHintedGroupMatchesUDF)
	if everyRow != func() (sel [window]int32) { ascending(sel[:]); return }() {
		t.Error("the shared selection of every row was written to")
	}
}

// leaseRecs is n rows of (id int, value float with a NaN and nulls, aux
// int with nulls, w float, label string, bucket int, flag bool).
func leaseRecs(n int) []data.Record {
	recs := boundaryRecs(n, false)
	for i, r := range recs {
		recs[i] = r.Append(data.Str(labels[i%3])).Append(data.Int(int64(i % 37))).Append(data.Bool(i%5 == 0))
	}
	return recs
}

// leaseChains are a chain for every part of the scratch: the selection, the
// transposed and the computed columns, the dense copies behind a filter,
// and the group tables under int, string, composite and float keys — the
// last meets a null and moves to the general table — and a global group.
func leaseChains() map[string]func(*plan.Builder, *plan.Operator) *plan.Operator {
	filter := func(b *plan.Builder, in *plan.Operator) *plan.Operator {
		return b.FilterWhere(in, 1, plan.LessEq, data.Float(50))
	}
	return map[string]func(*plan.Builder, *plan.Operator) *plan.Operator{
		"filter": func(b *plan.Builder, s *plan.Operator) *plan.Operator { return b.ProjectCols(filter(b, s), 4, 0, 1) },
		"map":    func(b *plan.Builder, s *plan.Operator) *plan.Operator { return asColumns(b, s, "scale") },
		"filter/map/fold": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.AggregateCols(asColumns(b, filter(b, s), "scale"), plan.AggSum, plan.AggMax, plan.AggMin, plan.AggFirst)
		},
		"fold": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.AggregateCols(b.ProjectCols(filter(b, s), 0, 3, 4), plan.AggSum, plan.AggMin, plan.AggMax)
		},
		"group-int": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.GroupAggregate(filter(b, s), []int{5}, everyFold(5, 3)...)
		},
		"group-string": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.GroupAggregate(s, []int{4}, everyFold(4, 1)...)
		},
		"group-composite": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.GroupAggregate(filter(b, s), []int{4, 5}, everyFold(4, 0)...)
		},
		"group-float": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.GroupAggregate(s, []int{1}, everyFold(1, 3)...)
		},
		"group-global": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.GroupAggregate(filter(b, s), nil, everyFold(0, 3)[1:]...)
		},
	}
}

// runWhole runs source → build(source) → sink as one java atom, hinted or
// as its UDF twin, and returns the result under the canonical encoding. It
// takes no *testing.T: several goroutines call it.
func runWhole(source func(*plan.Builder) *plan.Operator, hinted bool, build func(*plan.Builder, *plan.Operator) *plan.Operator) ([]byte, error) {
	b := plan.NewBuilder("lease")
	b.Collect(build(b, source(b)))
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		return nil, err
	}
	for _, op := range pp.Ops {
		if !hinted && op.Kind() != plan.KindSource {
			op.Logical = udfTwin(op.Logical)
		}
	}
	exits, _, err := New().ExecuteAtom(context.Background(), inAtom(pp), engine.AtomInputs{})
	if err != nil {
		return nil, err
	}
	recs, err := exits[0].AsCollection()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	_, err = data.WriteBinary(&buf, recs)
	return buf.Bytes(), err
}

func atRestSource(cols *batch.Batch) func(*plan.Builder) *plan.Operator {
	return func(b *plan.Builder) *plan.Operator { return b.SourceColumns("s", cols, nil) }
}

func rowsSource(recs []data.Record) func(*plan.Builder) *plan.Operator {
	return func(b *plan.Builder) *plan.Operator { return b.Source("s", plan.Collection(recs)) }
}

// TestLeaseLeavesColumnsAtRestAlone: a window over a columnar source is
// views of storage every job shares, and Column.Fill writes into whatever
// storage a column holds — so a scratch that kept such a view would have
// the next rows-source job transpose over the catalog. Chains over a batch
// at rest alternate with chains over rows whose columns are of every kind,
// on one goroutine (the free list hands the same scratch back), and the batch
// must encode to the same bytes afterwards.
func TestLeaseLeavesColumnsAtRestAlone(t *testing.T) {
	cols := batch.FromRecords(leaseRecs(window + 300))
	before := encodeRecs(t, cols.ToRecords())
	// Seven columns like the batch's, each holding another kind than the
	// batch's column of that index, and a mixed one.
	rows := make([]data.Record, window+300)
	for i := range rows {
		mixed := data.Int(int64(i))
		if i%2 == 0 {
			mixed = data.Str("m")
		}
		rows[i] = data.NewRecord(data.Str("x"), data.Int(int64(-i)), data.Bool(i%2 == 0), mixed,
			data.Float(float64(i)), data.Float(-1), data.Int(9))
	}
	everyColumn := func(b *plan.Builder, s *plan.Operator) *plan.Operator {
		return b.AggregateCols(s, plan.AggMax, plan.AggMin, plan.AggFirst, plan.AggFirst, plan.AggMin, plan.AggSum, plan.AggSum)
	}
	for round := 0; round < 4; round++ {
		for name, build := range leaseChains() {
			want, wantErr := runWhole(atRestSource(cols), false, build)
			got, err := runWhole(atRestSource(cols), true, build)
			if err != nil || wantErr != nil || !bytes.Equal(got, want) {
				t.Fatalf("round %d: %s over columns at rest diverges from its UDF twin (%v, %v)", round, name, err, wantErr)
			}
			if _, err := runWhole(rowsSource(rows), true, everyColumn); err != nil {
				t.Fatal(err)
			}
			if _, err := runWhole(rowsSource(rows), true, build); err == nil && strings.HasPrefix(name, "map") {
				t.Fatalf("%s over columns of other kinds did not fail", name)
			}
		}
	}
	if !bytes.Equal(before, encodeRecs(t, cols.ToRecords())) {
		t.Fatal("the batch at rest changed under the jobs that read it")
	}
}

// TestLeaseConcurrentForcings: goroutines force different chains over one
// batch at rest, leasing and releasing scratches to one another through
// the free list, each compared with its UDF twin — under -race this is also the
// check that nothing leased is shared.
func TestLeaseConcurrentForcings(t *testing.T) {
	cols := batch.FromRecords(leaseRecs(2*window + 100))
	var wg sync.WaitGroup
	for name, build := range leaseChains() {
		want, err := runWhole(atRestSource(cols), false, build)
		if err != nil {
			t.Fatalf("%s: the UDF twin failed: %v", name, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got, err := runWhole(atRestSource(cols), true, build); err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s, run %d: diverges from its UDF twin (%v)", name, i, err)
					return
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
}

// severed reports what of a released scratch still refers to a job.
func severed(s *scratch) error {
	w, g := &s.win, &s.group
	for _, cols := range [][]batch.Column{w.cols, w.maps.args} {
		for i, c := range cols {
			if c.Int64s != nil || c.Float64s != nil || c.Strings != nil || c.Bools != nil || c.Any != nil || c.Valid != nil {
				return fmt.Errorf("window column %d is still a view", i)
			}
		}
	}
	for _, cols := range [][]batch.Column{w.store, w.maps.calc, w.maps.dense} {
		for i, c := range cols {
			for _, v := range c.Strings[:cap(c.Strings)] {
				if v != "" {
					return fmt.Errorf("stored column %d keeps the string %q", i, v)
				}
			}
			for _, v := range c.Any[:cap(c.Any)] {
				if !v.IsNull() {
					return fmt.Errorf("stored column %d keeps the value %v", i, v)
				}
			}
			if c.Valid != nil {
				return fmt.Errorf("stored column %d keeps a validity bitmap", i)
			}
		}
	}
	if g.spec != nil || len(g.ints) != 0 || len(g.strs) != 0 || g.any != nil || len(g.keys) != 0 {
		return fmt.Errorf("the grouper keeps its spec or %d+%d+%d keys", len(g.ints), len(g.strs), len(g.keys))
	}
	for _, vals := range [][]data.Value{g.keys[:cap(g.keys)], w.maps.vals[:cap(w.maps.vals)]} {
		for _, v := range vals {
			if !v.IsNull() {
				return fmt.Errorf("the key or value %v is kept", v)
			}
		}
	}
	for j, st := range g.accs[:cap(g.accs)] {
		for _, a := range st[:cap(st)] {
			if len(st) != 0 || a.N != 0 || a.Sum != 0 || !a.Best.IsNull() {
				return fmt.Errorf("output column %d keeps %d accumulators, one of them %+v", j, len(st), a)
			}
		}
	}
	return nil
}

// TestLeaseAfterFailure: a column function that returns an error in the
// second window of a grouped chain, and one that panics there, leave their
// groups' keys and accumulators in the scratch — the error path returns it,
// the panic drops it — and the next job on the same goroutine, grouping
// other rows under other keys, answers what its UDF twin answers. What the
// free list hands out in between refers to nothing.
func TestLeaseAfterFailure(t *testing.T) {
	recs := leaseRecs(2*window + 50)
	failing := func(fail func() error) func(*plan.Builder, *plan.Operator) *plan.Operator {
		return func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			m := b.MapColumns(s, plan.ColumnMap{
				In:  []plan.ColumnIn{{Field: 0, Kind: batch.ColInt64}, {Field: 4, Kind: batch.ColString}},
				Out: []batch.ColKind{batch.ColString, batch.ColInt64},
				Fn: func(n int, in, out []batch.Column) error {
					if in[0].Int64s[0] >= window {
						return fail()
					}
					copy(out[0].Strings, in[1].Strings)
					copy(out[1].Int64s, in[0].Int64s)
					return nil
				},
			})
			return b.GroupAggregate(m, []int{0}, everyFold(0, 1)...)
		}
	}
	clean := leaseChains()["group-string"]
	other := leaseRecs(700)
	for i := range other {
		other[i] = other[i].WithField(4, data.Str(fmt.Sprint("k", i%11)))
	}
	want, err := runWhole(rowsSource(other), false, clean)
	if err != nil {
		t.Fatal(err)
	}
	for name, fail := range map[string]func() error{
		"error": func() error { return errors.New("row refused") },
		"panic": func() error { panic("row refused") },
	} {
		for _, src := range []func(*plan.Builder) *plan.Operator{rowsSource(recs), atRestSource(batch.FromRecords(recs))} {
			if _, err := runWhole(src, true, failing(fail)); err == nil || !strings.Contains(err.Error(), "row refused") {
				t.Fatalf("%s: the failing job returned %v", name, err)
			}
			s := scratches.Get()
			if err := severed(s); err != nil {
				t.Errorf("after the %s: %v", name, err)
			}
			s.release()
			if got, err := runWhole(rowsSource(other), true, clean); err != nil || !bytes.Equal(got, want) {
				t.Errorf("after the %s: the next job diverges from its UDF twin (%v)", name, err)
			}
		}
	}
}

// TestGatherCatchesUpByWindows: a 1 M-row batch whose filter drops a row
// only in the last window is gathered into a new batch, and catching up on
// the 244 windows that passed whole costs the output's columns — a bool a
// row here, grown by appending — not a 4 MB selection of all of them.
func TestGatherCatchesUpByWindows(t *testing.T) {
	const rows = 1_000_000
	ids, flags := make([]int64, rows), make([]bool, rows)
	for i := range ids {
		ids[i], flags[i] = int64(i), i%3 == 0
	}
	in, err := batch.New(rows, []batch.Column{{Kind: batch.ColInt64, Int64s: ids}, {Kind: batch.ColBool, Bools: flags}})
	if err != nil {
		t.Fatal(err)
	}
	b := plan.NewBuilder("late")
	f := b.FilterWhere(b.Source("s", plan.Collection(nil)), 0, plan.NotEq, data.Int(rows-2))
	p := b.ProjectCols(f, 1)
	b.Collect(p)
	b.MustBuild()
	force := func() *batch.Batch {
		pl := asPipeline(context.Background(), in)
		pl.push(f)
		pl.push(p)
		out, err := pl.force()
		if err != nil {
			t.Fatal(err)
		}
		return out.(*batch.Batch)
	}
	force() // warm-up: the free list of scratches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := force()
	runtime.ReadMemStats(&after)
	if out.Len() != rows-1 || out.Col(0).Bools[rows-2] != flags[rows-1] {
		t.Fatalf("gathered %d rows, want %d with the last one moved up", out.Len(), rows-1)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes to gather %d one-byte rows", bytes, out.Len())
	if limit := uint64(6 << 20); bytes > limit {
		t.Errorf("gathering allocated %d bytes, gate is %d: the catch-up is not window-sized", bytes, limit)
	}
}
