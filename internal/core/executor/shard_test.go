package executor

import (
	"bytes"
	"strings"
	"testing"

	"rheem/internal/core/engine"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/core/trace"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/sparksim"
)

// shardFixture builds a plan whose source is pinned to spark and whose
// compute chain is pinned to java, so the chain becomes a compute atom
// with exactly one external input — the shape intra-atom sharding
// applies to. build receives the builder and the source operator and
// must Collect a sink.
func shardFixture(t *testing.T, recs []data.Record, build func(b *plan.Builder, s *plan.Operator)) (*physical.Plan, map[int]engine.PlatformID) {
	t.Helper()
	b := plan.NewBuilder("shard-fixture")
	s := b.Source("src", plan.Collection(recs))
	s.CardHint = int64(len(recs))
	build(b, s)
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	fa := map[int]engine.PlatformID{}
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindSource {
			fa[op.ID] = sparksim.ID
		} else {
			fa[op.ID] = javaengine.ID
		}
	}
	return pp, fa
}

// runWithShards executes the fixture with the given shard fan-out and
// returns the result (including the always-collected trace).
func runWithShards(t *testing.T, pp *physical.Plan, fa map[int]engine.PlatformID, shards int) *Result {
	t.Helper()
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := sparksim.Register(reg, sparksim.Config{}); err != nil {
		t.Fatal(err)
	}
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{
		DisableRules: true, ForcedAssignments: fa, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ep, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func countShardSpans(res *Result) (shardSpans int, fanOuts map[int]int) {
	fanOuts = map[int]int{}
	for _, sp := range res.Trace.Spans {
		if sp.Kind == trace.KindShard {
			shardSpans++
		} else if sp.Shards > 0 {
			fanOuts[sp.AtomID] = sp.Shards
		}
	}
	return shardSpans, fanOuts
}

// modKey groups by value mod k.
func modKey(k int64) plan.KeyFunc {
	return func(r data.Record) (data.Value, error) {
		return data.Int(r.Field(0).Int() % k), nil
	}
}

var sumReduce plan.ReduceFunc = func(a, b data.Record) (data.Record, error) {
	// Key-preserving: field 0 keeps a's value (same key class mod k).
	return data.NewRecord(a.Field(0), data.Int(a.Field(1).Int()+b.Field(1).Int())), nil
}

// TestShardedStreamyMatchesUnsharded proves the core claim for
// record-wise chains: a sharded map→filter pipeline returns exactly the
// unsharded byte sequence, order included, and actually fanned out.
func TestShardedStreamyMatchesUnsharded(t *testing.T) {
	build := func(b *plan.Builder, s *plan.Operator) {
		m := b.Map(s, func(r data.Record) (data.Record, error) {
			return data.NewRecord(r.Field(0), data.Int(r.Field(0).Int()*3)), nil
		})
		f := b.Filter(m, func(r data.Record) (bool, error) {
			return r.Field(0).Int()%7 != 0, nil
		})
		b.Collect(f)
	}
	pp1, fa1 := shardFixture(t, intRecords(101), build)
	base := runWithShards(t, pp1, fa1, 1)
	pp4, fa4 := shardFixture(t, intRecords(101), build)
	sharded := runWithShards(t, pp4, fa4, 4)

	// Sharded execution promises byte-identical output in the original
	// order, not just the same multiset.
	if !bytes.Equal(recordBytes(t, sharded.Records), recordBytes(t, base.Records)) {
		t.Errorf("sharded records differ from unsharded (%d vs %d records)",
			len(sharded.Records), len(base.Records))
	}
	shardSpans, fanOuts := countShardSpans(sharded)
	if shardSpans != 4 {
		t.Errorf("got %d shard spans, want 4", shardSpans)
	}
	if len(fanOuts) != 1 {
		t.Errorf("expected exactly one sharded atom, got %v", fanOuts)
	}
	if baseShards, _ := countShardSpans(base); baseShards != 0 {
		t.Errorf("unsharded run emitted %d shard spans", baseShards)
	}
}

// TestShardedCombinesMatchUnsharded covers every combining exit kind:
// the driver-side merge must reproduce the unsharded output. Kinds
// whose unsharded engine is itself order-free (hash grouping iterates
// a Go map) are compared as multisets; the deterministic kinds
// (reduce, count, distinct, sort) must match positionally.
func TestShardedCombinesMatchUnsharded(t *testing.T) {
	orderFree := map[string]bool{"reduce-by-key": true}
	cases := map[string]func(b *plan.Builder, s *plan.Operator){
		"reduce-by-key": func(b *plan.Builder, s *plan.Operator) {
			m := b.Map(s, func(r data.Record) (data.Record, error) {
				return data.NewRecord(data.Int(r.Field(0).Int()%5), data.Int(1)), nil
			})
			b.Collect(b.ReduceByKey(m, modKey(5), sumReduce))
		},
		"reduce": func(b *plan.Builder, s *plan.Operator) {
			m := b.Map(s, func(r data.Record) (data.Record, error) {
				return data.NewRecord(data.Int(0), r.Field(0)), nil
			})
			b.Collect(b.Reduce(m, sumReduce))
		},
		"count": func(b *plan.Builder, s *plan.Operator) {
			b.Collect(b.Count(b.Filter(s, func(r data.Record) (bool, error) {
				return r.Field(0).Int()%2 == 0, nil
			})))
		},
		"distinct": func(b *plan.Builder, s *plan.Operator) {
			m := b.Map(s, func(r data.Record) (data.Record, error) {
				return data.NewRecord(data.Int(r.Field(0).Int() % 9)), nil
			})
			b.Collect(b.Distinct(m))
		},
		"sort": func(b *plan.Builder, s *plan.Operator) {
			m := b.Map(s, func(r data.Record) (data.Record, error) {
				// Many duplicate keys exercise stable-order preservation.
				return data.NewRecord(data.Int(r.Field(0).Int()%4), r.Field(0)), nil
			})
			b.Collect(b.Sort(m, modKey(4), false))
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			pp1, fa1 := shardFixture(t, intRecords(97), build)
			base := runWithShards(t, pp1, fa1, 1)
			pp4, fa4 := shardFixture(t, intRecords(97), build)
			sharded := runWithShards(t, pp4, fa4, 4)
			var got, want []byte
			if orderFree[name] {
				got = []byte(strings.Join(sortedRecordBytes(t, sharded.Records), ""))
				want = []byte(strings.Join(sortedRecordBytes(t, base.Records), ""))
			} else {
				got, want = recordBytes(t, sharded.Records), recordBytes(t, base.Records)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("sharded %s differs from unsharded (%d vs %d records)",
					name, len(sharded.Records), len(base.Records))
			}
			if shardSpans, _ := countShardSpans(sharded); shardSpans == 0 {
				t.Errorf("%s did not shard", name)
			}
		})
	}
}

// TestUnshardableShapesRunWhole: atoms outside the shardable class —
// a group-by (whole groups), a combine consumed inside the atom, a
// sample — must execute unsharded and still produce correct results
// under WithShards.
func TestUnshardableShapesRunWhole(t *testing.T) {
	cases := map[string]func(b *plan.Builder, s *plan.Operator){
		"group-by": func(b *plan.Builder, s *plan.Operator) {
			g := b.GroupBy(s, modKey(5), func(key data.Value, group []data.Record) ([]data.Record, error) {
				return []data.Record{data.NewRecord(key, data.Int(int64(len(group))))}, nil
			})
			b.Collect(g)
		},
		"combine-consumed-in-atom": func(b *plan.Builder, s *plan.Operator) {
			c := b.Count(s)
			m := b.Map(c, func(r data.Record) (data.Record, error) {
				return data.NewRecord(data.Int(r.Field(0).Int() * 2)), nil
			})
			b.Collect(m)
		},
		"sample": func(b *plan.Builder, s *plan.Operator) {
			b.Collect(b.Sample(s, 10))
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			pp1, fa1 := shardFixture(t, intRecords(60), build)
			base := runWithShards(t, pp1, fa1, 1)
			pp4, fa4 := shardFixture(t, intRecords(60), build)
			sharded := runWithShards(t, pp4, fa4, 4)
			// Multiset comparison: the hash group-by's own output order
			// is unspecified even without sharding.
			got := sortedRecordBytes(t, sharded.Records)
			want := sortedRecordBytes(t, base.Records)
			if strings.Join(got, "\x00") != strings.Join(want, "\x00") {
				t.Errorf("%s output changed under WithShards", name)
			}
			if shardSpans, _ := countShardSpans(sharded); shardSpans != 0 {
				t.Errorf("%s sharded despite being unshardable", name)
			}
		})
	}
}

// TestShardSpanTree pins the observability contract: the sharded atom's
// span carries the fan-out width, each shard span carries its index and
// the width, and shard indices cover 0..P-1 exactly once.
func TestShardSpanTree(t *testing.T) {
	pp, fa := shardFixture(t, intRecords(80), func(b *plan.Builder, s *plan.Operator) {
		b.Collect(b.Map(s, plan.Identity()))
	})
	res := runWithShards(t, pp, fa, 4)

	seen := map[int]bool{}
	var atomWithShards *trace.Span
	for _, sp := range res.Trace.Spans {
		switch sp.Kind {
		case trace.KindShard:
			if sp.Shards != 4 {
				t.Errorf("shard span reports width %d, want 4", sp.Shards)
			}
			if sp.Shard < 0 || sp.Shard >= 4 || seen[sp.Shard] {
				t.Errorf("bad or duplicate shard index %d", sp.Shard)
			}
			seen[sp.Shard] = true
			if sp.Failed() {
				t.Errorf("shard %d span reports failure", sp.Shard)
			}
		case trace.KindAtom:
			if sp.Shards > 0 {
				if atomWithShards != nil {
					t.Error("more than one sharded atom span")
				}
				atomWithShards = sp
			}
			if sp.Shard != -1 {
				t.Errorf("atom span has shard index %d, want -1", sp.Shard)
			}
		}
	}
	if len(seen) != 4 {
		t.Fatalf("saw shard indices %v, want 0..3", seen)
	}
	if atomWithShards == nil {
		t.Fatal("no atom span carries the shard fan-out")
	}
	if atomWithShards.Platform != javaengine.ID {
		t.Errorf("sharded atom ran on %s, want %s", atomWithShards.Platform, javaengine.ID)
	}
}

// TestShardDiscountFlipsPlatform: with a large input the simulated
// cluster normally beats the single-node engine on a map-heavy plan;
// telling the optimizer about the shard fan-out discounts the
// single-node compute cost and must flip the assignment back — the
// paper's small-vs-big crossover (Figure 2), moved by intra-atom
// parallelism.
func TestShardDiscountFlipsPlatform(t *testing.T) {
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := sparksim.Register(reg, sparksim.Config{}); err != nil {
		t.Fatal(err)
	}
	// 200k records sits between the two crossovers: spark's slot count
	// beats one java core (crossover ~130k), but not eight java shards
	// at 70% efficiency (crossover ~270k, where spark's 50ms job
	// overhead has amortized).
	build := func() *physical.Plan {
		b := plan.NewBuilder("flip")
		s := b.Source("src", plan.Collection(nil))
		s.CardHint = 200_000
		b.Collect(b.Map(s, plan.Identity()))
		pp, err := physical.FromLogical(b.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		return pp
	}
	assignFor := func(shards int) engine.PlatformID {
		pp := build()
		ep, err := optimizer.Optimize(pp, reg, optimizer.Options{DisableRules: true, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range pp.Ops {
			if op.Kind() == plan.KindMap {
				return ep.Assignment[op.ID]
			}
		}
		t.Fatal("no map operator")
		return ""
	}
	if pl := assignFor(1); pl != sparksim.ID {
		t.Skipf("baseline assignment is %s, not spark; cost calibration changed", pl)
	}
	if pl := assignFor(8); pl != javaengine.ID {
		t.Errorf("8-way sharding left the map on %s, want %s", pl, javaengine.ID)
	}
}

// TestShardedMetricsAggregate: a sharded atom's metrics must count one
// platform job per shard while the run's simulated time reflects the
// parallel fan-out (max over shards, not the sum).
func TestShardedMetricsAggregate(t *testing.T) {
	pp, fa := shardFixture(t, intRecords(100), func(b *plan.Builder, s *plan.Operator) {
		b.Collect(b.Map(s, plan.Identity()))
	})
	res := runWithShards(t, pp, fa, 4)
	// Source atom contributes 1 job; the sharded compute atom 4.
	if res.Metrics.Jobs != 5 {
		t.Errorf("run counted %d jobs, want 5 (source + 4 shards)", res.Metrics.Jobs)
	}
	pp1, fa1 := shardFixture(t, intRecords(100), func(b *plan.Builder, s *plan.Operator) {
		b.Collect(b.Map(s, plan.Identity()))
	})
	base := runWithShards(t, pp1, fa1, 1)
	if res.Metrics.Sim >= base.Metrics.Sim*2 {
		t.Errorf("sharded Sim %v looks summed, unsharded is %v", res.Metrics.Sim, base.Metrics.Sim)
	}
}

// TestShardedDistributedRunsWhole: a map chain pinned to the simulated
// cluster is priced as one job (the optimizer's shard discount skips a
// distributed platform), so it runs as one: no shard spans, as many
// platform jobs as without a fan-out, and the same records byte for
// byte. The cluster parallelises across its own partitions.
func TestShardedDistributedRunsWhole(t *testing.T) {
	build := func(b *plan.Builder, s *plan.Operator) {
		m := b.Map(s, func(r data.Record) (data.Record, error) {
			return data.NewRecord(r.Field(0), data.Int(r.Field(0).Int()*3)), nil
		})
		b.Collect(b.Map(m, plan.Identity()))
	}
	run := func(shards int) *Result {
		pp, fa := shardFixture(t, intRecords(101), build)
		for id, pl := range fa {
			if pl == sparksim.ID {
				fa[id] = javaengine.ID
			} else {
				fa[id] = sparksim.ID
			}
		}
		return runWithShards(t, pp, fa, shards)
	}
	base, sharded := run(1), run(4)
	if n, fanOuts := countShardSpans(sharded); n != 0 || len(fanOuts) != 0 {
		t.Errorf("sparksim chain fanned out: %d shard spans, widths %v", n, fanOuts)
	}
	if sharded.Metrics.Jobs != base.Metrics.Jobs {
		t.Errorf("Shards: 4 launched %d jobs, Shards: 1 %d", sharded.Metrics.Jobs, base.Metrics.Jobs)
	}
	if !bytes.Equal(recordBytes(t, sharded.Records), recordBytes(t, base.Records)) {
		t.Errorf("records differ (%d vs %d)", len(sharded.Records), len(base.Records))
	}
}
