package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"rheem/internal/core/engine"
	"rheem/internal/core/executor"
	"rheem/internal/core/metrics"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
)

func init() {
	register("sharding", sharding)
}

// Burn is the wide workload's per-record compute: a few rounds of
// SplitMix64-style integer mixing. The result feeds the output record,
// so the compiler cannot elide it, and the function is pure, so
// sharded and unsharded runs compute identical records.
func Burn(v int64, work int) int64 {
	x := uint64(v)*0x9E3779B97F4A7C15 + 1
	for i := 0; i < work; i++ {
		x ^= x >> 33
		x *= 0xFF51AFD7ED558CCD
		x ^= x >> 29
	}
	return int64(x >> 1)
}

// WidePlan builds the sharding workload: one source feeding a Map
// (sleeping `delay` per record to stand in for real per-tuple work,
// the same stand-in FanOutPlan uses) and a Filter into the sink. The
// shape is the opposite of its diamond — a single straight chain with *no*
// independent branches, so the concurrent DAG scheduler (inter-atom
// parallelism) finds nothing to overlap and only intra-atom sharding
// can shorten the wide atom.
func WidePlan(recs int, delay time.Duration) (*physical.Plan, error) {
	b := plan.NewBuilder("wide-map")
	src := make([]data.Record, recs)
	for i := range src {
		src[i] = data.NewRecord(data.Int(int64(i)), data.Int(int64(i)))
	}
	s := b.Source("src", plan.Collection(src))
	s.CardHint = int64(recs)
	m := b.Map(s, func(r data.Record) (data.Record, error) {
		if delay > 0 {
			time.Sleep(delay)
		}
		return data.NewRecord(r.Field(0), data.Int(Burn(r.Field(1).Int(), 64))), nil
	})
	f := b.Filter(m, func(r data.Record) (bool, error) {
		return r.Field(0).Int()%16 != 0, nil
	})
	b.Collect(f)
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return physical.FromLogical(p)
}

// WideRecords is the record count WidePlan's sink sees: the filter
// drops every 16th input.
func WideRecords(recs int) int {
	return recs - (recs+15)/16
}

// WideAssignments pins the source to the relational engine (the same
// boundary idiom as FanOutPlan's diamond) and the map–filter chain (plus sink)
// to the single-node engine. The platform boundary keeps the chain out
// of the source's atom, making it exactly the shape planShards
// accepts: a single-input compute atom of record-wise operators.
func WideAssignments(pp *physical.Plan) map[int]engine.PlatformID {
	fa := make(map[int]engine.PlatformID, len(pp.Ops))
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindSource {
			fa[op.ID] = relengine.ID
		} else {
			fa[op.ID] = javaengine.ID
		}
	}
	return fa
}

// RunWideTraced optimizes a fresh wide-chain plan and executes it with
// the given shard fan-out (≤1 disables sharding), with the span stream
// feeding a telemetry hub (nil runs untraced), so rheem-bench -metrics
// sees per-shard spans and the skew they expose.
func RunWideTraced(reg *engine.Registry, hub *metrics.Hub, recs int, delay time.Duration, shards int) (*executor.Result, error) {
	pp, err := WidePlan(recs, delay)
	if err != nil {
		return nil, err
	}
	return runForced(pp, reg, hub, "wide-map",
		optimizer.Options{ForcedAssignments: WideAssignments(pp), Shards: shards}, executor.Options{})
}

// shardSweep is the E11 fan-out sweep: 1 (the unsharded baseline),
// powers of two up to the widest point, and GOMAXPROCS itself. The
// sweep always reaches at least 4 — the shard width models platform
// slots, not host threads, and per-record work that waits (I/O, RPC,
// the sleep stand-in) overlaps across shards on any host.
func shardSweep() []int {
	widest := runtime.GOMAXPROCS(0)
	if widest < 4 {
		widest = 4
	}
	set := map[int]bool{1: true, widest: true, runtime.GOMAXPROCS(0): true}
	for p := 2; p < widest; p *= 2 {
		set[p] = true
	}
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// sharding measures intra-atom data parallelism on the wide
// single-atom chain: the same plan at shard fan-outs from 1 to
// GOMAXPROCS. Records are invariant (byte-identical — pinned by the
// conformance and shard test suites); the job count grows with the
// fan-out because each shard is a real platform job. The single-node
// engine's simulated clock is its measured atom time, and a sharded
// atom reports the slowest shard (parallel-shard semantics), so both
// clocks shrink as the fan-out widens. Best-of-3 per point to shave
// scheduler noise.
func sharding(cfg Config) ([]*Table, error) {
	recs, delay, reps := 600, 150*time.Microsecond, 3
	if cfg.Quick {
		recs, delay, reps = 100, 100*time.Microsecond, 1
	}
	t := &Table{
		Title: fmt.Sprintf("E11 — sharded intra-atom execution (%s records × %v work each)",
			Count(recs), delay),
		Note:    "One wide Map+Filter atom split into P input shards; records are invariant, jobs grow with the fan-out, the clock shrinks toward the slowest shard.",
		Columns: []string{"shards", "wall", "sim", "jobs", "records", "speedup"},
	}
	var base time.Duration
	for _, shards := range shardSweep() {
		cfg.logf("sharding: shards=%d", shards)
		var bestRes *engine.Metrics
		var res *executor.Result
		for rep := 0; rep < reps; rep++ {
			// A fresh context per run keeps measurements independent: no
			// cross-run platform state (stage accounting, catalogs) leaks
			// into the clocks.
			ctx, err := newCtx(cfg)
			if err != nil {
				return nil, err
			}
			r, err := RunWideTraced(ctx.Registry(), cfg.Hub, recs, delay, shards)
			if err != nil {
				return nil, err
			}
			if got := len(r.Records); got != WideRecords(recs) {
				return nil, fmt.Errorf("sharding: shards=%d produced %d records, want %d", shards, got, WideRecords(recs))
			}
			if bestRes == nil || pick(cfg, r.Metrics) < pick(cfg, *bestRes) {
				m := r.Metrics
				bestRes, res = &m, r
			}
		}
		clock := pick(cfg, *bestRes)
		if shards == 1 {
			base = clock
		}
		t.AddRow(fmt.Sprint(shards), Dur(bestRes.Wall), Dur(bestRes.Sim),
			fmt.Sprint(bestRes.Jobs), Count(len(res.Records)), Speedup(base, clock))
	}
	return []*Table{t}, nil
}
