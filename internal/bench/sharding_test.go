package bench

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"rheem"
	"rheem/internal/core/executor"
	"rheem/internal/core/trace"
	"rheem/internal/data"
)

func wideRecordBytes(t *testing.T, recs []data.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := data.WriteBinary(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func shardSpansOf(res *executor.Result) int {
	n := 0
	for _, sp := range res.Trace.Spans {
		if sp.Kind == trace.KindShard {
			n++
		}
	}
	return n
}

// TestShardingSpeedup is E11's acceptance gate on the wide single-atom
// chain. shards=1 must take exactly the pre-sharding path — no shard
// spans, the same job count, byte-identical records. A wide fan-out
// must also reproduce the records byte-identically and be ≥1.5× faster
// on the simulated clock: the single-node engine's sim is its measured
// atom time, a sharded atom reports its slowest shard, and the
// per-record work waits rather than spins, so shards overlap on any
// host. Timing is best-of-3 to shave scheduler noise.
func TestShardingSpeedup(t *testing.T) {
	const recs, reps = 200, 3
	const delay = 150 * time.Microsecond
	run := func(shards int) *executor.Result {
		t.Helper()
		// A fresh context per run keeps runs strictly independent: no
		// platform state (catalogs, stage accounting) carries over.
		ctx, err := rheem.NewContext(rheem.Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunWideTraced(ctx.Registry(), nil, recs, delay, shards)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	best := func(shards int) (*executor.Result, time.Duration) {
		res := run(shards)
		min := res.Metrics.Sim
		for i := 1; i < reps; i++ {
			if r := run(shards); r.Metrics.Sim < min {
				res, min = r, r.Metrics.Sim
			}
		}
		return res, min
	}

	legacy, legacySim := best(0) // today's path: no shard option at all
	base, baseSim := best(1)
	for name, res := range map[string]*executor.Result{"shards=0": legacy, "shards=1": base} {
		if n := shardSpansOf(res); n != 0 {
			t.Errorf("%s produced %d shard spans, want the unsharded path", name, n)
		}
	}
	if base.Metrics.Jobs != legacy.Metrics.Jobs {
		t.Errorf("shards=1 launched %d jobs, unsharded path launched %d", base.Metrics.Jobs, legacy.Metrics.Jobs)
	}
	want := wideRecordBytes(t, legacy.Records)
	if !bytes.Equal(wideRecordBytes(t, base.Records), want) {
		t.Error("shards=1 records differ from the unsharded path")
	}
	t.Logf("sim: shards=0 %v, shards=1 %v (same path, wall noise only)", legacySim, baseSim)

	// The shard width models platform slots, not host threads, so the
	// slowest-shard clock is meaningful even on a small CI box; still
	// use GOMAXPROCS when it is wide enough to be interesting.
	shards := runtime.GOMAXPROCS(0)
	if shards < 4 {
		shards = 4
	}
	sharded, shardedSim := best(shards)
	if !bytes.Equal(wideRecordBytes(t, sharded.Records), want) {
		t.Errorf("shards=%d records differ from the unsharded path", shards)
	}
	if n := shardSpansOf(sharded); n < shards {
		t.Errorf("shards=%d produced %d shard spans, want ≥%d", shards, n, shards)
	}
	if sharded.Metrics.Jobs <= base.Metrics.Jobs {
		t.Errorf("sharded run launched %d jobs, want more than the unsharded %d",
			sharded.Metrics.Jobs, base.Metrics.Jobs)
	}
	speedup := float64(baseSim) / float64(shardedSim)
	t.Logf("sim: shards=1 %v, shards=%d %v — %.2fx", baseSim, shards, shardedSim, speedup)
	if speedup < 1.5 {
		t.Errorf("shards=%d sim speedup %.2fx, want ≥1.5x (base %v, sharded %v)",
			shards, speedup, baseSim, shardedSim)
	}
}
