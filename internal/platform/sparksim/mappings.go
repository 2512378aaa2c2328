package sparksim

import (
	"time"

	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
)

// Register creates the platform, registers it and its declarative
// operator mappings, and returns it.
//
// The declared costs mirror the virtual clock: the same per-record
// shapes as the single-node engine, divided by the cluster's slot
// count, plus the per-job startup overhead. Wide operators additionally
// charge estimated shuffle volume as network time. Keeping the
// declared model aligned with the simulated clock is what lets the
// optimizer's choices track the platform that actually wins (E6).
func Register(reg *engine.Registry, cfg Config) (*Platform, error) {
	p := New(cfg)
	if err := reg.RegisterPlatform(p); err != nil {
		return nil, err
	}
	c := p.cfg
	slots := c.Slots()
	const perRec = 200 * time.Nanosecond // calibrated to the shared kernels (see EXPERIMENTS.md)

	par := func(m cost.Model) cost.Model {
		return cost.WithStartup(cost.Parallel(m, slots), c.JobOverhead)
	}
	linear := par(cost.PerRecord(0, perRec, perRec/4))
	nlogn := par(cost.NLogN(0, perRec/2))
	quadratic := par(cost.PairQuadratic(0, 100*time.Nanosecond))
	// Sources have no inputs; their work is producing records.
	source := par(cost.PerRecord(0, 0, perRec))

	// shuffled adds network time for moving the input volume through
	// the shuffle fabric.
	shuffled := func(m cost.Model) cost.Model {
		return func(op *physical.Operator, inCards []int64, outCard int64) cost.Cost {
			base := m(op, inCards, outCard)
			var in int64
			for _, card := range inCards {
				in += card
			}
			bytes := float64(in * cost.DefaultRecBytes)
			base.Net += time.Duration(bytes / shuffleBandwidth * 1e9)
			return base
		}
	}

	type md struct {
		kind plan.OpKind
		algo physical.Algorithm
		m    cost.Model
		hint string
	}
	decls := []md{
		{plan.KindSource, physical.Default, source, "parallelize cluster-resident input"},
		{plan.KindMap, physical.Default, linear, "narrow"},
		{plan.KindFlatMap, physical.Default, linear, "narrow"},
		{plan.KindFilter, physical.Default, linear, "narrow"},
		{plan.KindGroupBy, physical.HashGroupBy, shuffled(linear), "wide: full shuffle"},
		{plan.KindGroupBy, physical.SortGroupBy, shuffled(nlogn), "wide: full shuffle"},
		{plan.KindReduceByKey, physical.HashGroupBy, shuffled(linear), "map-side combine"},
		{plan.KindReduceByKey, physical.SortGroupBy, shuffled(nlogn), "map-side combine"},
		{plan.KindReduce, physical.Default, linear, "tree aggregate"},
		{plan.KindSort, physical.Default, shuffled(nlogn), "range repartition"},
		{plan.KindDistinct, physical.HashDistinct, shuffled(linear), "wide"},
		{plan.KindDistinct, physical.SortDistinct, shuffled(nlogn), "wide"},
		{plan.KindUnion, physical.Default, cost.ConstModel(cost.Cost{Startup: c.JobOverhead}), "zero-copy"},
		{plan.KindJoin, physical.HashJoin, shuffled(linear), "co-partitioned"},
		{plan.KindJoin, physical.SortMergeJoin, shuffled(nlogn), "co-partitioned"},
		{plan.KindThetaJoin, physical.NestedLoop, shuffled(quadratic), "broadcast right side"},
		{plan.KindThetaJoin, physical.IEJoin, shuffled(par(cost.NLogN(0, 300*time.Nanosecond))), "broadcast right side"},
		{plan.KindCartesian, physical.Default, shuffled(quadratic), "broadcast right side"},
		{plan.KindCount, physical.Default, linear, ""},
		{plan.KindSample, physical.Default, linear, ""},
		{plan.KindSink, physical.Default, cost.ConstModel(cost.Cost{}), ""},
		{plan.KindRepeat, physical.Default, cost.ConstModel(cost.Cost{}), "loop driven by executor"},
		{plan.KindDoWhile, physical.Default, cost.ConstModel(cost.Cost{}), "loop driven by executor"},
		{plan.KindLoopInput, physical.Default, cost.ConstModel(cost.Cost{Startup: c.JobOverhead}), "each loop iteration is a job"},
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
