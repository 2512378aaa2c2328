// Package javaengine is the single-node, in-process execution platform
// — the reproduction's stand-in for the "plain Java program" side of
// the paper's Figure 2 (see DESIGN.md §3).
//
// It executes the physical operators of an atom one after the other on
// driver-resident data. Operators carrying a declarative column hint form
// a lazy pipeline that is forced once, 4 096 rows at a time over column
// slices, by whatever consumes it (columnar.go) — a Sort keyed by a column
// orders its survivors and makes only the rows that leave (sort.go) — a
// union of them by the aggregate that folds its legs in turn: the layout
// this engine owns. A run of un-hinted Map, Filter and FlatMap operators
// is one fused pass (algo.Chain), forced a 4 096-row window at a time
// (rows.go); for everything else the rows go to algo.Exec, the one
// definition of what an operator computes that every platform shares. A
// forcing of more than one window uses every core, on the process's
// helpers (engine's helper runtime, shared with sparksim's stages). A
// hinted forcing's helpers load and filter windows while the forcing
// goroutine consumes them in window order (morsel.go), so results and the
// sequence of user-function calls are the serial forcing's; a UDF chain's
// windows run whole on any goroutine, so its UDFs may be called
// concurrently, and its outputs keep input order. A panicking operator
// fails its job, not the process: engine.RunAtom recovers it into a Fatal
// error. The engine has no per-job overhead worth modelling and no
// cluster: its simulated time equals its measured wall time plus a small
// constant per atom. That is exactly why it wins on small inputs and
// iteration-heavy loops, and loses to the Spark simulator once inputs are
// large enough for a cluster's parallelism to amortise job overheads.
package javaengine

import (
	"context"
	"slices"
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
const ID engine.PlatformID = "java"

// startupOverhead is charged to simulated time once per atom execution,
// modelling in-process dispatch.
const startupOverhead = 200 * time.Microsecond

// Platform is the single-node engine.
type Platform struct{}

// New returns the platform.
func New() *Platform { return &Platform{} }

// ID implements engine.Platform.
func (p *Platform) ID() engine.PlatformID { return ID }

// NativeFormat implements engine.Platform: the engine computes directly
// on driver collections.
func (p *Platform) NativeFormat() channel.Format { return channel.Collection }

// RegisterConverters implements engine.Platform. The native format is
// the hub format, so no converters are needed.
func (p *Platform) RegisterConverters(*channel.Registry) {}

// SupportsBatch implements engine.Vectorized: an operator whose logical
// form carries a declarative column hint executes directly on
// channel.Batch inputs. A sink hands a batch through when it is given
// one but does not ask for the format — that would have the optimizer
// price a batch edge for every plan's result.
func (p *Platform) SupportsBatch(op *physical.Operator) bool { return hinted(op.Logical) }

// ExecuteAtom implements engine.Platform.
func (p *Platform) ExecuteAtom(ctx context.Context, atom *engine.TaskAtom, inputs engine.AtomInputs) ([]*channel.Channel, engine.Metrics, error) {
	start := time.Now()
	d := &datasetOps{atom: atom}
	exits, err := engine.RunAtom(ctx, d, atom, inputs)
	wall := time.Since(start)
	m := engine.Metrics{
		Wall:       wall,
		Sim:        wall + startupOverhead,
		Jobs:       1,
		InRecords:  d.inRecords,
		OutRecords: d.outRecords,
	}
	if err != nil {
		return nil, m, err
	}
	return exits, m, nil
}

// datasetOps adapts the engine's datasets — []data.Record rows, a
// *batch.Batch from a channel, a columnar source's batch atRest, the lazy
// *pipeline a hinted filter or projection returns or the lazy *union — to
// the generic atom runner. atom is the one being run (nil in kernel
// tests), which lets an operator see how many operators read its output.
type datasetOps struct {
	atom       *engine.TaskAtom
	inRecords  int64
	outRecords int64
}

func (d *datasetOps) FromChannel(ch *channel.Channel) (any, error) {
	if ch.Format == channel.Batch {
		b, err := ch.AsBatch()
		if err != nil {
			return nil, err
		}
		d.inRecords += int64(b.Len())
		return b, nil
	}
	recs, err := ch.AsCollection()
	if err != nil {
		return nil, err
	}
	d.inRecords += int64(len(recs))
	return recs, nil
}

func (d *datasetOps) ToChannel(ds any) (*channel.Channel, error) {
	if p, ok := ds.(*pipeline); ok {
		var err error
		if ds, err = p.force(); err != nil {
			return nil, err
		}
	}
	switch ds := ds.(type) {
	case *batch.Batch:
		d.outRecords += int64(ds.Len())
		return channel.NewBatch(ds), nil
	case counted:
		d.outRecords += int64(len(ds.recs))
		return &channel.Channel{Format: channel.Collection, Payload: ds.recs, Records: int64(len(ds.recs)), Bytes: ds.bytes}, nil
	}
	recs := ds.([]data.Record)
	d.outRecords += int64(len(recs))
	return channel.NewCollection(recs), nil
}

// rowsOf forces a dataset into rows for the row code: a pipeline or
// columns at rest through a forcing, a batch converted losslessly.
func rowsOf(ctx context.Context, ds any) ([]data.Record, error) {
	switch ds := ds.(type) {
	case *pipeline, atRest:
		return asPipeline(ctx, ds).records()
	case *batch.Batch:
		return ds.ToRecords(), nil
	case counted:
		return ds.recs, nil
	}
	return ds.([]data.Record), nil
}

// union is a lazy Union: its legs in order, never a union, which its one
// reader (takesLegs) splices in or runs in turn through one accumulator.
type union struct {
	legs   []any
	inline [4]any // legs' storage while there are at most four
}

// takesLegs reports whether an operator reads a union leg by leg.
func takesLegs(r *physical.Operator) bool {
	return r != nil && (r.Kind() == plan.KindUnion || r.Logical.ColAgg() != nil || r.Logical.ColGroup() != nil)
}

// splice is the union of the inputs, a union's legs for the union.
func splice(inputs []any) *union {
	u, ok := inputs[0].(*union) // a left-deep chain's legs grow in place
	if ok {
		inputs = inputs[1:]
	} else {
		u = new(union)
		u.legs = u.inline[:0]
	}
	for i := range inputs {
		u.legs = append(u.legs, legsOf(inputs[i:])...)
	}
	return u
}

// legsOf returns the legs a consumer runs: a union's, or inputs[0] alone.
func legsOf(inputs []any) []any {
	if u, ok := inputs[0].(*union); ok {
		return u.legs
	}
	return inputs[:1]
}

// concat forces the inputs, a union's legs for the union, into one
// exactly sized slice of their rows in order.
func concat(ctx context.Context, inputs []any) ([]data.Record, error) {
	parts := make([][]data.Record, 0, 4)
	for i := range inputs {
		for _, leg := range legsOf(inputs[i:]) {
			recs, err := rowsOf(ctx, leg)
			if err != nil {
				return nil, err
			}
			parts = append(parts, recs)
		}
	}
	return slices.Concat(parts...), nil
}

// ExecOp executes one physical operator. What is the engine's own is the
// layout: an operator with a column hint joins or folds its input's lazy
// pipeline (columnar.go), a Sort keyed by a column orders its survivors
// where they stand (sort.go), a union hands its legs on to a reader that takes
// them, a source reads on the driver — its columns as they stand when only
// such operators read it — and a sink hands its input through. What any
// other operator computes on rows is algo.Exec's to say; a pipeline or
// batch it is handed is forced into rows first.
func (d *datasetOps) ExecOp(ctx context.Context, op *physical.Operator, inputs []any) (any, error) {
	if out, handled, err := d.execHinted(ctx, op, inputs); handled {
		return out, err
	}
	switch op.Kind() {
	case plan.KindSource:
		if cols := op.Logical.ColSource(); cols != nil && d.columnReaders(op) {
			return atRest{cols}, nil
		}
		return op.Logical.Source()()
	case plan.KindSink:
		return inputs[0], nil // rows, a batch or a pipeline, untouched
	case plan.KindUnion: // lazy for a reader that takes legs, else forced here, once
		if d.atom != nil && takesLegs(d.atom.Reader(op)) {
			return splice(inputs), nil
		}
		return concat(ctx, inputs)
	case plan.KindSort: // on its key column, cut to a LIMIT that reads it alone
		if _, ok := op.Logical.ColSort(); ok {
			limit := -1
			if d.atom != nil {
				if r := d.atom.Reader(op); r != nil && r.Kind() == plan.KindSample {
					limit = r.Logical.N()
				}
			}
			return sortColumn(ctx, inputs[0], op.Logical, limit)
		}
	}
	if algo.Narrow(op.Logical) {
		return d.execRows(ctx, op, inputs[0])
	}
	var in [2][]data.Record
	for i, ds := range inputs {
		var err error
		if in[i], err = rowsOf(ctx, ds); err != nil {
			return nil, err
		}
	}
	return algo.Exec(op, in[0], in[1])
}

// Register creates the platform, registers it and its declarative
// operator mappings, and returns it. Cost constants are calibrated to
// the shared kernels: 200 ns of CPU per record for linear operators.
func Register(reg *engine.Registry) (*Platform, error) {
	p := New()
	if err := reg.RegisterPlatform(p); err != nil {
		return nil, err
	}
	const perRec = 200 * time.Nanosecond // calibrated to the shared kernels (see EXPERIMENTS.md)
	linear := cost.PerRecord(0, perRec, perRec/4)
	nlogn := cost.NLogN(0, perRec/2)
	quadratic := cost.PairQuadratic(0, 100*time.Nanosecond)
	// Sources have no inputs; their work is producing records.
	source := cost.PerRecord(0, 0, perRec)

	type md struct {
		kind plan.OpKind
		algo physical.Algorithm
		m    cost.Model
		hint string
	}
	decls := []md{
		{plan.KindSource, physical.Default, source, "driver-side read"},
		{plan.KindMap, physical.Default, linear, ""},
		{plan.KindFlatMap, physical.Default, linear, ""},
		{plan.KindFilter, physical.Default, linear, ""},
		{plan.KindGroupBy, physical.HashGroupBy, linear, "no order produced"},
		{plan.KindGroupBy, physical.SortGroupBy, nlogn, "groups ordered by key"},
		{plan.KindReduceByKey, physical.HashGroupBy, linear, ""},
		{plan.KindReduceByKey, physical.SortGroupBy, nlogn, ""},
		{plan.KindReduce, physical.Default, linear, ""},
		{plan.KindSort, physical.Default, nlogn, ""},
		{plan.KindDistinct, physical.HashDistinct, linear, ""},
		{plan.KindDistinct, physical.SortDistinct, nlogn, ""},
		{plan.KindUnion, physical.Default, linear, ""},
		{plan.KindJoin, physical.HashJoin, linear, "hash build on right input"},
		{plan.KindJoin, physical.SortMergeJoin, nlogn, ""},
		{plan.KindThetaJoin, physical.NestedLoop, quadratic, "arbitrary predicates"},
		{plan.KindThetaJoin, physical.IEJoin, cost.NLogN(0, 300*time.Nanosecond), "inequality conditions only"},
		{plan.KindCartesian, physical.Default, quadratic, ""},
		{plan.KindCount, physical.Default, linear, ""},
		{plan.KindSample, physical.Default, linear, ""},
		{plan.KindSink, physical.Default, cost.ConstModel(cost.Cost{}), ""},
		{plan.KindRepeat, physical.Default, cost.ConstModel(cost.Cost{}), "loop driven by executor"},
		{plan.KindDoWhile, physical.Default, cost.ConstModel(cost.Cost{}), "loop driven by executor"},
		{plan.KindLoopInput, physical.Default, cost.ConstModel(cost.Cost{Startup: startupOverhead}), "in-process iteration"},
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
