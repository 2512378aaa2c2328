// Package javaengine is the single-node, in-process execution platform
// — the reproduction's stand-in for the "plain Java program" side of
// the paper's Figure 2 (see DESIGN.md §3).
//
// It executes the physical operators of an atom one after the other on
// driver-resident data. Operators carrying a declarative column hint form
// a lazy pipeline that is forced once, 4 096 rows at a time over column
// slices, by whatever consumes it (columnar.go) — the layout this engine
// owns. A run of un-hinted Map, Filter and FlatMap operators is one fused
// pass (algo.Chain), forced a 4 096-row window at a time (rows.go); for
// everything else the rows go to algo.Exec, the one definition of what an
// operator computes that every platform shares. A forcing of more than one
// window uses every core, on the process's helpers (engine's helper
// runtime, shared with sparksim's stages). A hinted forcing's helpers load
// and filter windows while the forcing goroutine consumes them in window
// order (morsel.go), so results and the sequence of user-function calls
// are the serial forcing's; a UDF chain's windows run whole on any
// goroutine, so its UDFs may be called concurrently, and its outputs keep
// input order. A panicking operator fails its job, not the process:
// engine.RunAtom recovers it into a Fatal error. The engine has no per-job
// overhead worth modelling and no cluster: its simulated time equals its
// measured wall time plus a small constant per atom. That is exactly why
// it wins on small inputs and iteration-heavy loops, and loses to the
// Spark simulator once inputs are large enough for a cluster's
// parallelism to amortise job overheads.
package javaengine

import (
	"context"
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

// Profile implements engine.Platform.
func (p *Platform) Profile() engine.Profile {
	return engine.Profile{Description: "single-node in-process engine"}
}

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
// *batch.Batch from a channel, a columnar source's batch atRest, or the
// lazy *pipeline a hinted filter or projection returns — to the generic
// atom runner. atom is the one being
// run (nil in kernel tests), which lets a hinted operator see how many
// operators read its output.
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

// asRecords materialises a dataset for the row code; columnar batches
// are converted losslessly. ExecOp has forced any pipeline by then.
func asRecords(ds any) []data.Record {
	switch ds := ds.(type) {
	case *batch.Batch:
		return ds.ToRecords()
	case counted:
		return ds.recs
	}
	return ds.([]data.Record)
}

// ExecOp executes one physical operator. What is the engine's own is the
// layout: an operator with a column hint joins or folds its input's lazy
// pipeline (columnar.go), a source reads on the driver — its columns as
// they stand when only such operators read it — and a sink hands its
// input through. What any other operator computes on rows is
// algo.Exec's to say; a pipeline or batch it is handed is forced into
// rows first.
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
	}
	if algo.Narrow(op.Logical) {
		return d.execRows(ctx, op, inputs[0])
	}
	var in [2][]data.Record
	for i, ds := range inputs {
		if p, ok := ds.(*pipeline); ok {
			recs, err := p.records()
			if err != nil {
				return nil, err
			}
			ds = recs
		}
		in[i] = asRecords(ds)
	}
	return algo.Exec(op, in[0], in[1])
}

// Register creates the platform, registers it and its declarative
// operator mappings, and returns it. Cost constants are calibrated to
// the shared kernels: ~500ns of CPU per record for linear operators.
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
