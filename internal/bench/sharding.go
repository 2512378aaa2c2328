package bench

import (
	"bytes"
	"fmt"
	"runtime"
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
// so the compiler cannot elide it, and the function is pure, so every
// worker count computes identical records.
func Burn(v int64, work int) int64 {
	x := uint64(v)*0x9E3779B97F4A7C15 + 1
	for i := 0; i < work; i++ {
		x ^= x >> 33
		x *= 0xFF51AFD7ED558CCD
		x ^= x >> 29
	}
	return int64(x >> 1)
}

// rowWindow is the rows a javaengine UDF chain forces at a time
// (javaengine/rows.go): a chain of two windows or more runs its windows
// on engine's helper runtime when GOMAXPROCS > 1.
const rowWindow = 4096

// WideRows is E11's input: eight row windows and a ragged ninth.
const WideRows = 8*rowWindow + 17

// wideWork is the Burn rounds the wide chain's Map spends on a row:
// enough that the chain's compute, not the conversions around it,
// dominates the run.
const wideWork = 512

// WidePlan builds E11's workload: one source feeding a Map (wideWork
// rounds of CPU-bound work a row) and a Filter into the sink. The shape
// is the opposite of FanOutPlan's diamond — a single straight chain with
// *no* independent branches, so the concurrent DAG scheduler (inter-atom
// parallelism) finds nothing to overlap and only the platform's own
// row windows can shorten the wide atom.
func WidePlan(recs int) (*physical.Plan, error) {
	b := plan.NewBuilder("wide-map")
	src := make([]data.Record, recs)
	for i := range src {
		src[i] = data.NewRecord(data.Int(int64(i)), data.Int(int64(i)))
	}
	s := b.Source("src", plan.Collection(src))
	s.CardHint = int64(recs)
	m := b.Map(s, func(r data.Record) (data.Record, error) {
		return data.NewRecord(r.Field(0), data.Int(Burn(r.Field(1).Int(), wideWork))), nil
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
// boundary idiom as FanOutPlan's diamond) and the map–filter chain (plus
// sink) to the single-node engine. The platform boundary keeps the chain
// out of the source's atom: the java atom's one input is the source's
// rows, which its fused Map–Filter pass forces a row window at a time.
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

// RunWideTraced optimizes a fresh wide-chain plan and executes it at the
// process's GOMAXPROCS, with the span stream feeding a telemetry hub
// (nil runs untraced).
func RunWideTraced(reg *engine.Registry, hub *metrics.Hub, recs int) (*executor.Result, error) {
	pp, err := WidePlan(recs)
	if err != nil {
		return nil, err
	}
	return runForced(pp, reg, hub, "wide-map",
		optimizer.Options{ForcedAssignments: WideAssignments(pp)}, executor.Options{})
}

// workerSweep is E11's sweep: the GOMAXPROCS values it runs the wide
// chain at.
var workerSweep = []int{1, 2, 4}

// sharding is E11: the wide single-atom chain over WideRows rows at
// GOMAXPROCS 1, 2 and 4, set here and restored afterwards. Records are
// byte-identical at every width (the experiment checks it); the job
// count is the same, since the parallelism is inside the java atom, on
// its row windows. Best wall of reps per point.
func sharding(cfg Config) ([]*Table, error) {
	recs, reps := WideRows, 3
	if cfg.Quick {
		recs, reps = 2*rowWindow+17, 1
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	t := &Table{
		Title: fmt.Sprintf("E11 — one intra-atom parallelism: row windows (%s records × %d rounds of work each)",
			Count(recs), wideWork),
		Note:    "One wide Map+Filter atom on javaengine, its row windows on engine's helper runtime; records and jobs are invariant, the wall shrinks with the workers.",
		Columns: []string{"workers", "wall", "jobs", "records", "speedup"},
	}
	var base time.Duration
	var want []byte
	for _, workers := range workerSweep {
		cfg.logf("sharding: workers=%d", workers)
		runtime.GOMAXPROCS(workers)
		var best *executor.Result
		for rep := 0; rep < reps; rep++ {
			// A fresh context per run keeps measurements independent: no
			// cross-run platform state leaks into the clocks.
			ctx, err := newCtx(cfg)
			if err != nil {
				return nil, err
			}
			runtime.GC()
			r, err := RunWideTraced(ctx.Registry(), cfg.Hub, recs)
			ctx.Close()
			if err != nil {
				return nil, err
			}
			if got := len(r.Records); got != WideRecords(recs) {
				return nil, fmt.Errorf("sharding: workers=%d produced %d records, want %d", workers, got, WideRecords(recs))
			}
			if best == nil || r.Metrics.Wall < best.Metrics.Wall {
				best = r
			}
		}
		var buf bytes.Buffer
		if _, err := data.WriteBinary(&buf, best.Records); err != nil {
			return nil, err
		}
		if want == nil {
			want, base = buf.Bytes(), best.Metrics.Wall
		} else if !bytes.Equal(buf.Bytes(), want) {
			return nil, fmt.Errorf("sharding: workers=%d records differ from workers=%d", workers, workerSweep[0])
		}
		t.AddRow(fmt.Sprint(workers), Dur(best.Metrics.Wall), fmt.Sprint(best.Metrics.Jobs),
			Count(len(best.Records)), Speedup(base, best.Metrics.Wall))
	}
	return []*Table{t}, nil
}
