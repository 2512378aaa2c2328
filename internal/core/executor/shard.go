// Intra-atom data parallelism: one wide task atom fans out over P
// shards of its input batch, each shard executed as a full atom run on
// the assigned platform, and the exits merged driver-side with
// deterministic semantics. The scheduler parallelizes *across* atoms;
// sharding parallelizes *inside* one, so a single big
// Map/Filter/ReduceByKey no longer serializes the run.
//
// The fan-out is internal — P is the plan's optimizer.Options.Shards,
// which no run option sets — and covers only atoms on single-node
// platforms, the ones the optimizer discounts (planShards).
//
// Merge semantics per operator class (see DESIGN.md §5):
//
//   - record-wise ("streamy") operators — Map, FlatMap, Filter, Sink —
//     emit independent per-record output, so shard results concatenate
//     in shard index order. Shards are contiguous, so the concatenation
//     replays exactly the unsharded output order.
//   - combining operators — ReduceByKey, Reduce, Count, Distinct, Sort
//     — produce per-shard partials that a driver-side combine folds:
//     re-group + re-reduce for ReduceByKey (reduce functions must be
//     associative, the same contract distributed execution imposes),
//     re-reduce for Reduce, partial-count summing for Count, re-dedup
//     for Distinct, and a stable re-sort for Sort. A combining operator
//     must be an exit: anything consuming its output inside the atom
//     would see partial aggregates.
//
// Anything else — GroupBy (the group UDF must see whole groups),
// Sample (first-N depends on the split), multi-input operators (a
// sharded self-join would miss cross-shard pairs), sources — makes the
// atom unshardable, and it executes exactly as before.
package executor

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"rheem/internal/core/algo"
	"rheem/internal/core/channel"
	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/core/trace"
	"rheem/internal/data"
)

// shardedExec is one atom's planned shard fan-out: the pre-split input
// shards and the per-exit merge classification.
type shardedExec struct {
	extPos, extSlot int                // the single external (operator position, slot) the shards feed
	shards          []*channel.Channel // per-shard input, platform-native format
	// combineOf maps each operator to the combining operator governing
	// its output's merge (a sink inherits its input's), or nil for
	// record-wise output (exit merge = concat in shard order).
	combineOf map[int]*physical.Operator
}

// planShards decides whether the atom can execute sharded and, if so,
// splits its single external input. nil means "run unsharded" — never
// an error: sharding is an optimization, not a requirement. A
// distributed platform is never fanned out: it parallelises across its
// own partitions, and the optimizer prices it as one job
// (shardDiscounts), so the fan-out and the price agree.
func (r *run) planShards(platform engine.Platform, atom *engine.TaskAtom, inputs engine.AtomInputs) *shardedExec {
	if r.shards == nil || atom.Kind != engine.AtomCompute || platform.Profile().Distributed {
		return nil
	}
	extPos, extSlot, n := 0, 0, 0
	for pos, slots := range inputs {
		for slot, ch := range slots {
			if ch != nil {
				extPos, extSlot, n = pos, slot, n+1
			}
		}
	}
	if n != 1 {
		return nil
	}
	combineOf, ok := shardClasses(atom)
	if !ok {
		return nil
	}
	in := inputs[extPos][extSlot]
	if in.Records < 2 {
		return nil
	}
	split := r.splitShardInput(in)
	if len(split) < 2 {
		return nil
	}
	return &shardedExec{extPos: extPos, extSlot: extSlot, shards: split, combineOf: combineOf}
}

// shardClasses classifies the atom's operators for sharding: streamy
// (record-wise, concat-mergeable) or combining (folded by mergeExit).
// A combining operator's partial output may feed a pass-through Sink —
// which then inherits the combine for merging — but nothing else
// in-atom: any other consumer would see partial aggregates. The second
// result is false when some operator fits neither class or breaks that
// rule, or doesn't have exactly one input.
func shardClasses(atom *engine.TaskAtom) (map[int]*physical.Operator, bool) {
	combineOf := make(map[int]*physical.Operator, len(atom.Ops))
	for _, op := range atom.Ops {
		if len(op.Inputs) != 1 {
			return nil, false // sources, loop inputs, unions, joins
		}
		in := op.Inputs[0]
		inCombine := combineOf[in.ID]
		if atom.Contains(in.ID) && inCombine != nil && op.Kind() != plan.KindSink {
			return nil, false // partial aggregates consumed in-atom
		}
		switch op.Kind() {
		case plan.KindMap, plan.KindFlatMap, plan.KindFilter:
			// record-wise: concat merge.
		case plan.KindSink:
			combineOf[op.ID] = inCombine // pass-through
		case plan.KindReduceByKey, plan.KindReduce, plan.KindCount,
			plan.KindDistinct, plan.KindSort:
			combineOf[op.ID] = op
		default:
			return nil, false
		}
	}
	return combineOf, true
}

// splitShardInput splits an input channel (the consuming operator's
// wanted format) into at most the plan's Options.Shards contiguous
// shards of that format. channel.Partition slices a Collection or a
// Batch in place; any other format (relengine's Table) is split
// through the hub Collection format and each shard converted back.
// The mechanical split cost is not charged to the run. nil (or a
// single shard) means "don't shard".
func (r *run) splitShardInput(ch *channel.Channel) []*channel.Channel {
	in, hub := ch, ch.Format != channel.Collection && ch.Format != channel.Batch
	if hub {
		var err error
		if in, _, _, err = r.reg.Channels().Convert(ch, channel.Collection); err != nil {
			return nil
		}
	}
	parts, err := channel.Partition(in, r.shards.Size())
	if err != nil || len(parts) < 2 {
		return nil
	}
	if hub {
		for i, p := range parts {
			if parts[i], _, _, err = r.reg.Channels().Convert(p, ch.Format); err != nil {
				return nil
			}
		}
	}
	return parts
}

// tryShardSlot claims what an extra shard goroutine must hold: a slot of
// the run's shard budget and, when the run shares a host pool, one of
// its slots too — so shards count against the same bound as atoms.
// Neither acquisition blocks, so a slot holder never waits on another
// slot and the fan-out cannot deadlock however small the pools are.
func (r *run) tryShardSlot() bool {
	if !r.shards.TryAcquire() {
		return false
	}
	if r.opts.Pool != nil && !r.opts.Pool.TryAcquire() {
		r.shards.Release()
		return false
	}
	return true
}

func (r *run) releaseShardSlot() {
	if r.opts.Pool != nil {
		r.opts.Pool.Release()
	}
	r.shards.Release()
}

// executeShards runs one attempt of a sharded atom: every shard
// through Platform.ExecuteAtom — on a goroutine of its own while
// tryShardSlot grants one, inline on the atom's goroutine (under the
// pool slot the atom already holds) when it does not — then the exits
// merged driver-side. Retries wrap the whole fan-out: a failed attempt
// re-executes every shard, keeping the retry ledger per-atom like the
// unsharded path.
//
// Aggregate metrics: Wall is the fan-out's elapsed host time; Sim is
// the slowest shard's simulated time (shards run in parallel) plus the
// merge's conversion cost; Jobs and the volume counters sum over
// shards — a P-shard execution really launches P platform jobs.
func (p *planScope) executeShards(ctx context.Context, platform engine.Platform, atom *engine.TaskAtom, sh *shardedExec) ([]*channel.Channel, engine.Metrics, error) {
	start := time.Now()
	type shardResult struct {
		exits []*channel.Channel
		m     engine.Metrics
		err   error
	}
	results := make([]shardResult, len(sh.shards))
	runShard := func(i int) {
		r := &results[i]
		ssp := p.tr.Begin(&trace.Span{
			Kind: trace.KindShard, AtomID: atom.ID, Name: atom.String(),
			Platform: atom.Platform, Plan: p.ep.Physical.Name, Iteration: p.iter,
			Shard: i, Shards: len(sh.shards), Atom: atom,
		}, time.Time{})
		defer func() { p.tr.End(ssp, r.m, r.err) }()
		defer recoverFatal(atom, &r.err) // a shard goroutine is outside runAtom's net
		ins := engine.NewAtomInputs(atom)
		ins[sh.extPos][sh.extSlot] = sh.shards[i]
		r.exits, r.m, r.err = platform.ExecuteAtom(ctx, atom, ins)
	}
	var wg sync.WaitGroup
	for i := range sh.shards {
		if !p.tryShardSlot() {
			runShard(i)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.releaseShardSlot()
			runShard(i)
		}()
	}
	wg.Wait()

	var m engine.Metrics
	var maxSim time.Duration
	var firstErr error
	for _, r := range results {
		sm := r.m
		maxSim = max(maxSim, sm.Sim)
		sm.Sim = 0
		sm.Wall = 0
		m.Add(sm)
		// Prefer a real shard failure over siblings' context noise: when
		// one shard dies and cancellation ripples, the cause should surface.
		if r.err != nil && (firstErr == nil || isContextErr(firstErr) && !isContextErr(r.err)) {
			firstErr = r.err
		}
	}
	m.Sim = maxSim
	m.Wall = time.Since(start)
	if firstErr != nil {
		return nil, m, firstErr
	}

	exits := make([]*channel.Channel, len(atom.Exits))
	for x, ex := range atom.Exits {
		parts := make([][]data.Record, len(results))
		for i, r := range results {
			var ch *channel.Channel
			if x < len(r.exits) {
				ch = r.exits[x]
			}
			if ch == nil {
				return nil, m, fmt.Errorf("executor: %s shard %d produced no exit for %s", atom, i, ex.Name())
			}
			var err error
			if _, parts[i], err = p.collect(ch, &m); err != nil {
				return nil, m, fmt.Errorf("executor: merging %s: %w", atom, err)
			}
		}
		merged, err := mergeExit(sh.combineOf[ex.ID], parts)
		if err != nil {
			// Driver-side combine runs the operator's own UDFs — a
			// failure is deterministic, so don't retry or fail over.
			return nil, m, engine.Fatal(fmt.Errorf("executor: merging %s of %s: %w", ex.Name(), atom, err))
		}
		exits[x] = channel.NewCollection(merged)
	}
	return exits, m, nil
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// mergeExit folds one exit's per-shard results into the final output.
// Record-wise exits (combine == nil) concatenate in shard order. A
// combining exit applies the governing operator once more to its
// concatenated partials (algo.Exec — with its algorithm choice, so a
// sort-based grouping keeps its key-ordered output; SortBy is stable and
// shards are contiguous, so re-sorting per-shard sorted runs reproduces
// the unsharded order exactly, equal keys included). Count is the one
// combine that is not its own merge: the partial counts are summed.
func mergeExit(combine *physical.Operator, parts [][]data.Record) ([]data.Record, error) {
	all := slices.Concat(parts...)
	if combine == nil {
		return all, nil
	}
	if combine.Kind() == plan.KindCount {
		var total int64
		for _, r := range all {
			total += r.Field(0).Int()
		}
		return []data.Record{data.NewRecord(data.Int(total))}, nil
	}
	return algo.Exec(combine, all, nil)
}
