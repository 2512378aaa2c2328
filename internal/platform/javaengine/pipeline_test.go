package javaengine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"testing"

	"rheem/internal/core/batch"
	"rheem/internal/core/channel"
	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// boundaryRecs builds n seeded (id int, value float, aux int, w float)
// rows and plants, at the last row of window 1, the first rows of
// window 2 and the middle of window 3 — wherever n reaches — the values
// a window boundary could mishandle: a NaN, a null, a run of leading
// nulls, a −0 and a value of another kind in the filtered column, nulls
// in a folded one. ragged additionally makes the rows at those three
// places one field wider, so their windows have no column form.
func boundaryRecs(n int, ragged bool) []data.Record {
	rng := rand.New(rand.NewPCG(17, uint64(n)))
	recs := make([]data.Record, n)
	for i := range recs {
		recs[i] = data.NewRecord(data.Int(int64(i)), data.Float(rng.Float64()*100-10),
			data.Int(int64(rng.IntN(1000))), data.Float(rng.NormFloat64()*1e9))
	}
	plant := func(i int, value, aux data.Value) {
		if i >= n {
			return
		}
		recs[i] = recs[i].WithField(1, value).WithField(2, aux)
		if ragged {
			recs[i] = recs[i].Append(data.Str("extra"))
		}
	}
	plant(window-1, data.Float(math.NaN()), data.Null())
	for i := window; i < window+3; i++ {
		plant(i, data.Null(), data.Null())
	}
	plant(window+3, data.Float(math.Copysign(0, -1)), data.Int(7))
	plant(2*window+2000, data.Int(3), data.Int(-1))
	return recs
}

// runChain builds source → build(...) → sink, hinted or as its UDF twin,
// and runs everything below the source as one java atom fed in, which is
// []data.Record (a Collection channel) or a *batch.Batch. It returns the
// result under the canonical encoding, or the error. A chain whose name
// ends in "/sorted" has its grouping sort-based.
func runChain(t *testing.T, in any, hinted bool, name string, build func(b *plan.Builder, src *plan.Operator) *plan.Operator) ([]byte, error) {
	t.Helper()
	rewrite := func(*physical.Operator) {}
	if !hinted {
		rewrite = func(op *physical.Operator) { op.Logical = udfTwin(op.Logical) }
	}
	return runChainWith(t, in, rewrite, name, build)
}

// runChainWith is runChain with rewrite applied to every operator below
// the source before the atom runs.
func runChainWith(t *testing.T, in any, rewrite func(*physical.Operator), name string, build func(b *plan.Builder, src *plan.Operator) *plan.Operator) ([]byte, error) {
	t.Helper()
	b := plan.NewBuilder("boundary")
	src := b.Source("s", plan.Collection(nil))
	b.Collect(build(b, src))
	lp := b.MustBuild()
	pp, err := physical.FromLogical(lp)
	if err != nil {
		t.Fatal(err)
	}
	ch := channel.NewCollection(nil)
	switch in := in.(type) {
	case []data.Record:
		ch = channel.NewCollection(in)
	case *batch.Batch:
		ch = channel.NewBatch(in)
	}
	atom := &engine.TaskAtom{Kind: engine.AtomCompute, Platform: ID, Exits: []*physical.Operator{pp.SinkOp}}
	var inputs engine.AtomInputs
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindSource {
			continue
		}
		rewrite(op)
		if op.Kind() == plan.KindGroupBy && strings.HasSuffix(name, "/sorted") {
			op.Algo = physical.SortGroupBy
		}
		atom.Ops = append(atom.Ops, op)
		slots := make([]*channel.Channel, len(op.Inputs))
		for slot, p := range op.Inputs {
			if p.Kind() == plan.KindSource {
				slots[slot] = ch
			}
		}
		inputs = append(inputs, slots)
	}
	exits, _, err := New().ExecuteAtom(context.Background(), atom, inputs)
	if err != nil {
		return nil, err
	}
	exit := exits[0]
	if exit.Format == channel.Batch {
		out, err := exit.AsBatch()
		if err != nil {
			t.Fatal(err)
		}
		return encodeRecs(t, out.ToRecords()), nil
	}
	recs, err := exit.AsCollection()
	if err != nil {
		t.Fatal(err)
	}
	return encodeRecs(t, recs), nil
}

// TestPipelineWindowBoundaries is the differential suite for forcing a
// pipeline across window boundaries: inputs one row short of a window,
// exactly one, one over, two and one and three and a bit, as rows, as a
// batch and as four shard views of a batch (validity offsets that are
// not zero), into every kind of consumer — and the hinted chain must
// agree with its UDF twin byte for byte, or fail with the same error
// text. For the grouped consumer every group's rows straddle the window
// edges: the int key's table meets its first null key in window 2 and
// hands its groups to the general one; the float key has the NaN (a
// group per row), the −0 and the integer. The column maps' chains
// (mapChains, failingChains) run here against the row UDF derived from
// the column function: the windows a map takes as columns, those it takes
// a row at a time (a null or another kind in a column it reads) and the
// ragged ones must give the same records, or fail alike.
func TestPipelineWindowBoundaries(t *testing.T) {
	tag := func(r data.Record) (data.Record, error) { return r.Append(data.Str("udf")), nil }
	// value <= 50 keeps about six rows in ten, the NaN, the −0 and the
	// integer; nulls never match.
	filter := func(b *plan.Builder, in *plan.Operator) *plan.Operator {
		return b.FilterWhere(in, 1, plan.LessEq, data.Float(50))
	}
	project := func(b *plan.Builder, in *plan.Operator) *plan.Operator {
		return b.ProjectCols(filter(b, in), 1, 0, 2, 3)
	}
	folds := []plan.AggFn{plan.AggMin, plan.AggSum, plan.AggMax, plan.AggSum}
	chains := map[string]func(*plan.Builder, *plan.Operator) *plan.Operator{
		"project/aggregate": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.AggregateCols(project(b, s), folds...)
		},
		"project/sink": project,
		"project/udf-map": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.Map(project(b, s), tag)
		},
		"project/fan-out": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			p := project(b, s)
			return b.Union(b.AggregateCols(p, folds...), b.Map(p, tag))
		},
		// Without a projection the chain's output is the source's rows:
		// the original records to a row consumer, every column to a fold.
		"filter/aggregate": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.AggregateCols(filter(b, s), plan.AggFirst, plan.AggMax, plan.AggMin, plan.AggSum)
		},
		"filter/sink": filter,
		"filter/udf-map": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.Map(filter(b, s), tag)
		},
		"filter/fan-out": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			f := filter(b, s)
			return b.Union(b.Map(f, tag), b.FilterWhere(f, 2, plan.Greater, data.Int(500)))
		},
		// Whole windows pass before the first row is dropped: over a batch
		// nothing is copied until then, and the catch-up must be exact.
		"filter/late-drop": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.ProjectCols(b.FilterWhere(s, 0, plan.Less, data.Int(2*window+10)), 2, 1)
		},
		// Error texts: a string sum, a sum that meets another kind in
		// window 3, too few folds for two survivors — and for exactly one,
		// which comes back unfolded.
		"errors/string-sum": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.AggregateCols(b.ProjectCols(b.Map(filter(b, s), tag), 4), plan.AggSum)
		},
		"errors/mixed-kind-sum": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.AggregateCols(b.ProjectCols(filter(b, s), 1), plan.AggSum)
		},
		"errors/arity": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.AggregateCols(project(b, s), plan.AggSum)
		},
		"errors/arity-one-survivor": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.AggregateCols(b.FilterWhere(project(b, s), 1, plan.Eq, data.Int(window)), plan.AggSum)
		},
	}
	groups := map[string]func(*plan.Builder, *plan.Operator) *plan.Operator{
		"filter/group-int": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.GroupAggregate(filter(b, s), []int{2}, append(everyFold(2, 1), everyFold(2, 3)[2:]...)...)
		},
		"group-float": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.GroupAggregate(s, []int{1}, everyFold(1, 3)...)
		},
		"project/group-global": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			return b.GroupAggregate(project(b, s), nil, append(everyFold(0, 3)[1:], everyFold(0, 0)[5:]...)...)
		},
		// Two keys, the first one a UDF made.
		"udf-map/group-two-keys": func(b *plan.Builder, s *plan.Operator) *plan.Operator {
			m := b.Map(s, func(r data.Record) (data.Record, error) {
				return data.NewRecord(r.Field(0), r.Field(1), r.Field(2), r.Field(3), data.Int(r.Field(0).Int()%7%5)), nil
			})
			return b.GroupAggregate(filter(b, m), []int{4, 2}, everyFold(4, 3)...)
		},
	}
	for name, build := range groups {
		chains[name] = build
		if name != "group-float" { // no sort order over its NaN keys
			chains[name+"/sorted"] = build
		}
	}
	for name, build := range mapChains(asColumns) {
		chains[name] = build
	}
	for name, build := range failingChains() {
		chains[name] = build
	}
	for _, n := range []int{window - 1, window, window + 1, 2*window + 1, 3*window + 7} {
		for _, ragged := range []bool{false, true} {
			for shape, ins := range boundaryInputs(n, ragged) {
				// What is planted in window 3 only an input that long, and whole,
				// fails on; the null a column map meets is in window 2.
				third, second := shape != "shards" && n >= 3*window, shape != "shards" && n > window
				mayPass := map[string]bool{
					"errors/arity-one-survivor": true, "errors/mixed-kind-sum": !third, "errors/map-fn": !third, "errors/map-null": !second,
				}
				for name, build := range chains {
					for i, in := range ins {
						rows := asRecords(in)
						want, wantErr := runChain(t, data.CloneRecords(rows), false, name, build)
						got, gotErr := runChain(t, in, true, name, build)
						id := fmt.Sprintf("n=%d ragged=%v %s over %s[%d]", n, ragged, name, shape, i)
						switch {
						case failure(wantErr) != failure(gotErr):
							t.Errorf("%s: UDF twin failed with %v, hinted chain with %v", id, wantErr, gotErr)
						case !bytes.Equal(want, got):
							t.Errorf("%s: hinted chain diverges from its UDF twin", id)
						}
						if wantErr == nil && name[:6] == "errors" && len(rows) > 1 && !mayPass[name] {
							t.Errorf("%s: expected an error, got none", id)
						}
					}
				}
			}
		}
	}
}

// TestPipelineEvaluatedOnce: a chain read by two operators of the atom is
// evaluated where it is produced, once — its upstream UDF sees every row
// once, and a window that falls back to the stages' row UDFs calls them
// once per row, not once per reader.
func TestPipelineEvaluatedOnce(t *testing.T) {
	recs := boundaryRecs(3*window+7, true)
	var upstream atomic.Int64 // a UDF may be called concurrently
	var stage int
	var f *plan.Operator
	build := func(b *plan.Builder, s *plan.Operator) *plan.Operator {
		m := b.Map(s, func(r data.Record) (data.Record, error) { upstream.Add(1); return r, nil })
		f = b.FilterWhere(m, 1, plan.LessEq, data.Float(50))
		p := b.ProjectCols(f, 1, 0)
		return b.Union(b.AggregateCols(p, plan.AggMax, plan.AggSum), b.Count(p))
	}
	counting := func(op *physical.Operator) {
		if match := op.Logical.Filter(); op.Logical == f {
			op.Logical = f.WithUDF(plan.FilterFunc(func(r data.Record) (bool, error) { stage++; return match(r) }))
		}
	}
	if _, err := runChainWith(t, recs, counting, "fan-out", build); err != nil {
		t.Fatal(err)
	}
	if n := upstream.Load(); n != int64(len(recs)) {
		t.Errorf("the UDF upstream of a chain with two readers ran %d times over %d rows", n, len(recs))
	}
	// Ragged rows sit in windows 1, 2 and 3; the fourth (7 rows) is clean.
	if stage != 3*window {
		t.Errorf("the filter's row UDF ran %d times, want once for each of the %d rows in ragged windows", stage, 3*window)
	}
}

// TestPipelineHonoursCancellation: forcing checks the context once per
// window, so a run cancelled before the chain is forced stops before it
// reads a row, with the context's error and not a Fatal one.
func TestPipelineHonoursCancellation(t *testing.T) {
	recs := boundaryRecs(3*window+7, true) // ragged: every row it reads goes through the counting UDF
	f, _, _ := buildHinted(t, plan.LessEq, data.Int(1<<40))
	calls := new(int)
	f = countCalls(calls, f)
	ctx, cancel := context.WithCancel(context.Background())
	out, err := (&datasetOps{}).ExecOp(ctx, physOp(f), []any{recs})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	_, err = out.(*pipeline).force()
	if !errors.Is(err, context.Canceled) || engine.IsFatal(err) {
		t.Errorf("forcing under a cancelled context returned %v, want context.Canceled", err)
	}
	if *calls > window {
		t.Errorf("a cancelled forcing read %d rows, want at most one window", *calls)
	}
	// Through the atom runner the same error surfaces unwrapped.
	cctx, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	b := plan.NewBuilder("cancel")
	src := b.Source("s", func() ([]data.Record, error) { cancel2(); return recs, nil })
	b.Collect(b.AggregateCols(b.FilterWhere(src, 0, plan.GreaterEq, data.Int(0)), plan.AggFirst, plan.AggFirst, plan.AggFirst, plan.AggFirst))
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = New().ExecuteAtom(cctx, inAtom(pp), engine.AtomInputs{})
	if !errors.Is(err, context.Canceled) || engine.IsFatal(err) {
		t.Errorf("an atom cancelled while its source ran returned %v, want context.Canceled", err)
	}
}
