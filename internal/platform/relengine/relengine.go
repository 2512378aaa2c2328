package relengine

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"rheem/internal/core/algo"
	"rheem/internal/core/batch"
	"rheem/internal/core/channel"
	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// ID is the platform identifier.
const ID engine.PlatformID = "relational"

// The engine's simulated-time profile.
const (
	// connectOverhead is charged per atom execution (statement
	// planning/dispatch).
	connectOverhead = 5 * time.Millisecond
	// relationalBoost scales simulated time for relational operators
	// (group-by, join, sort, distinct, count): compiled execution is
	// faster than the generic kernels' wall time.
	relationalBoost = 0.5
	// udfPenalty scales simulated time for opaque per-tuple UDF calls
	// (map, flatmap, filter): each call crosses the engine/UDF boundary.
	udfPenalty = 2.5
)

// Platform executes RHEEM plans over tables.
type Platform struct{}

// New returns the platform.
func New() *Platform { return &Platform{} }

// ID implements engine.Platform.
func (p *Platform) ID() engine.PlatformID { return ID }

// NativeFormat implements engine.Platform.
func (p *Platform) NativeFormat() channel.Format { return channel.Table }

// tableChannel wraps a table as a Table-format channel.
func tableChannel(t *Table) *channel.Channel {
	return &channel.Channel{
		Format:  channel.Table,
		Payload: t,
		Records: int64(len(t.rows)),
		Bytes:   tableBytes(t.rows),
	}
}

// countWindow is how many rows tableBytes counts as one task: javaengine's
// window.
const countWindow = 4096

// tableBytes is data.TotalBytes of a table's rows. A table of two windows
// or more is counted a window a task on engine's helper runtime, and the
// windows' counts are summed in window order: the same exact count, off
// the atom's goroutine alone.
func tableBytes(rows []data.Record) int64 {
	windows := (len(rows) + countWindow - 1) / countWindow
	if windows < 2 || runtime.GOMAXPROCS(0) == 1 {
		return data.TotalBytes(rows)
	}
	sizes := make([]int64, windows)
	_ = engine.Run(windows, windows-1, func(w int, _ bool) error { // no task fails
		lo := w * countWindow
		sizes[w] = data.TotalBytes(rows[lo:min(lo+countWindow, len(rows))])
		return nil
	})
	var n int64
	for _, s := range sizes {
		n += s
	}
	return n
}

// RegisterConverters implements engine.Platform: table ↔ collection,
// priced as bulk export/load. Every edge moves its input's records as
// they are, so it keeps the input's Bytes instead of counting them again.
func (p *Platform) RegisterConverters(reg *channel.Registry) {
	const perByte = 2.0 // ns/byte: COPY-style bulk transfer
	reg.Register(channel.Converter{
		From: channel.Collection, To: channel.Table,
		Fixed: 3 * time.Millisecond, PerByteNS: perByte,
		Convert: func(ch *channel.Channel) (*channel.Channel, error) {
			recs, err := ch.AsCollection()
			if err != nil {
				return nil, err
			}
			return ch.Rewrap(channel.Table, &Table{rows: data.CloneRecords(recs)}), nil
		},
	})
	reg.Register(channel.Converter{
		From: channel.Table, To: channel.Collection,
		Fixed: 3 * time.Millisecond, PerByteNS: perByte,
		Convert: func(ch *channel.Channel) (*channel.Channel, error) {
			t, err := tableOf(ch)
			if err != nil {
				return nil, err
			}
			// A view, not a copy: a table's rows are immutable, and the
			// clipped capacity sends a consumer's append to storage of its
			// own instead of the table's backing array.
			return ch.Rewrap(channel.Collection, t.rows[:len(t.rows):len(t.rows)]), nil
		},
	})
	// Direct table ↔ batch edges: a columnar export skips the row
	// materialisation a table → collection → batch chain would pay.
	// Priced so that no two-hop route through Batch undercuts the
	// direct table ↔ collection edges above (2.6+0.5 > 3.0 fixed,
	// 1.2+0.8 = 2.0 per byte), keeping every pre-existing conversion
	// path — batch-capable consumers still win because they stop at
	// the batch instead of paying the full export.
	reg.Register(channel.Converter{
		From: channel.Table, To: channel.Batch,
		Fixed: 2600 * time.Microsecond, PerByteNS: 1.2,
		Convert: func(ch *channel.Channel) (*channel.Channel, error) {
			t, err := tableOf(ch)
			if err != nil {
				return nil, err
			}
			return ch.Rewrap(channel.Batch, batch.FromRecords(t.rows)), nil
		},
	})
	reg.Register(channel.Converter{
		From: channel.Batch, To: channel.Table,
		Fixed: 2800 * time.Microsecond, PerByteNS: 1.6,
		Convert: func(ch *channel.Channel) (*channel.Channel, error) {
			b, err := ch.AsBatch()
			if err != nil {
				return nil, err
			}
			return ch.Rewrap(channel.Table, &Table{rows: data.CloneRecords(b.ToRecords())}), nil
		},
	})
}

func tableOf(ch *channel.Channel) (*Table, error) {
	if ch.Format != channel.Table {
		return nil, fmt.Errorf("relengine: channel format %s is not table", ch.Format)
	}
	t, ok := ch.Payload.(*Table)
	if !ok {
		return nil, fmt.Errorf("relengine: table channel holds %T", ch.Payload)
	}
	return t, nil
}

// ExecuteAtom implements engine.Platform.
func (p *Platform) ExecuteAtom(ctx context.Context, atom *engine.TaskAtom, inputs engine.AtomInputs) ([]*channel.Channel, engine.Metrics, error) {
	start := time.Now()
	d := &datasetOps{}
	exits, err := engine.RunAtom(ctx, d, atom, inputs)
	m := engine.Metrics{
		Wall:       time.Since(start),
		Sim:        connectOverhead + d.sim,
		Jobs:       1,
		InRecords:  d.inRecords,
		OutRecords: d.outRecords,
	}
	if err != nil {
		return nil, m, err
	}
	return exits, m, nil
}

// datasetOps executes physical operators over *Table datasets.
type datasetOps struct {
	sim        time.Duration
	inRecords  int64
	outRecords int64
}

func (d *datasetOps) FromChannel(ch *channel.Channel) (any, error) {
	t, err := tableOf(ch)
	if err != nil {
		return nil, err
	}
	d.inRecords += int64(t.NumRows())
	return t, nil
}

func (d *datasetOps) ToChannel(ds any) (*channel.Channel, error) {
	t := ds.(*Table)
	d.outRecords += int64(t.NumRows())
	return tableChannel(t), nil
}

// charge records op wall time into simulated time with the profile
// factor for the operator class.
func (d *datasetOps) charge(wall time.Duration, relational bool) {
	f := udfPenalty
	if relational {
		f = relationalBoost
	}
	d.sim += time.Duration(float64(wall) * f)
}

// ExecOp executes one physical operator as one statement over
// intermediate tables. The engine's own are the table layout (a source
// is a bulk load, a sink hands its table through, every other result is
// a new table) and the clock, which prices opaque per-tuple UDF calls
// (Map, FlatMap, Filter) up and everything else down; what the operator
// computes on the rows is algo.Exec's to say.
func (d *datasetOps) ExecOp(_ context.Context, op *physical.Operator, inputs []any) (any, error) {
	t0 := time.Now()
	var out []data.Record
	var err error
	relational := true
	switch k := op.Kind(); k {
	case plan.KindSink:
		return inputs[0], nil
	case plan.KindSource:
		out, err = op.Logical.Source()()
	default:
		relational = k != plan.KindMap && k != plan.KindFlatMap && k != plan.KindFilter
		var in [2][]data.Record
		for i, t := range inputs {
			in[i] = t.(*Table).rows
		}
		out, err = algo.Exec(op, in[0], in[1])
	}
	if err != nil {
		return nil, err
	}
	d.charge(time.Since(t0), relational)
	return &Table{rows: out}, nil
}

// Register creates the platform, registers it and its mappings, and
// returns it. Declared costs mirror the simulated-time profile:
// relational shapes are scaled down, UDF shapes up, plus the
// per-statement connect overhead.
func Register(reg *engine.Registry) (*Platform, error) {
	p := New()
	if err := reg.RegisterPlatform(p); err != nil {
		return nil, err
	}
	const perRec = 200 * time.Nanosecond // calibrated to the shared kernels (see EXPERIMENTS.md)
	rel := func(m cost.Model) cost.Model {
		return cost.WithStartup(cost.Scaled(m, relationalBoost), connectOverhead)
	}
	udf := func(m cost.Model) cost.Model {
		return cost.WithStartup(cost.Scaled(m, udfPenalty), connectOverhead)
	}
	linear := cost.PerRecord(0, perRec, perRec/4)
	nlogn := cost.NLogN(0, perRec/2)
	quadratic := cost.PairQuadratic(0, 100*time.Nanosecond)

	type md struct {
		kind plan.OpKind
		algo physical.Algorithm
		m    cost.Model
		hint string
	}
	decls := []md{
		{plan.KindSource, physical.Default, rel(cost.PerRecord(0, 0, perRec)), "bulk load"},
		{plan.KindMap, physical.Default, udf(linear), "per-tuple UDF call"},
		{plan.KindFlatMap, physical.Default, udf(linear), "per-tuple UDF call"},
		{plan.KindFilter, physical.Default, udf(linear), "per-tuple UDF call"},
		{plan.KindGroupBy, physical.HashGroupBy, rel(linear), "hash aggregate"},
		{plan.KindGroupBy, physical.SortGroupBy, rel(nlogn), "sorted aggregate"},
		{plan.KindReduceByKey, physical.HashGroupBy, rel(linear), "hash aggregate"},
		{plan.KindReduceByKey, physical.SortGroupBy, rel(nlogn), "sorted aggregate"},
		{plan.KindReduce, physical.Default, rel(linear), "aggregate"},
		{plan.KindSort, physical.Default, rel(nlogn), "order by"},
		{plan.KindDistinct, physical.HashDistinct, rel(linear), ""},
		{plan.KindDistinct, physical.SortDistinct, rel(nlogn), ""},
		{plan.KindUnion, physical.Default, rel(linear), "union all"},
		{plan.KindJoin, physical.HashJoin, rel(linear), "hash join"},
		{plan.KindJoin, physical.SortMergeJoin, rel(nlogn), "merge join"},
		{plan.KindThetaJoin, physical.NestedLoop, rel(quadratic), "nested loop"},
		{plan.KindThetaJoin, physical.IEJoin, rel(cost.NLogN(0, 300*time.Nanosecond)), "ie join"},
		{plan.KindCartesian, physical.Default, rel(quadratic), "cross join"},
		{plan.KindCount, physical.Default, rel(linear), "count(*)"},
		{plan.KindSample, physical.Default, rel(linear), "limit"},
		{plan.KindSink, physical.Default, cost.ConstModel(cost.Cost{}), ""},
		{plan.KindRepeat, physical.Default, cost.ConstModel(cost.Cost{}), "loop driven by executor"},
		{plan.KindDoWhile, physical.Default, cost.ConstModel(cost.Cost{}), "loop driven by executor"},
		{plan.KindLoopInput, physical.Default, cost.ConstModel(cost.Cost{Startup: connectOverhead}), "each loop iteration is a statement"},
	}
	for _, d := range decls {
		if err := reg.RegisterMapping(engine.Mapping{
			Platform: ID, Kind: d.kind, Algo: d.algo, Cost: d.m, Hint: d.hint,
		}); err != nil {
			return nil, err
		}
	}
	return p, nil
}
