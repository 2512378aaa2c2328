package engine_test

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rheem/internal/core/channel"
	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/sparksim"
)

// platform is what both engines offer: running one compute atom.
type platform interface {
	ExecuteAtom(context.Context, *engine.TaskAtom, engine.AtomInputs) ([]*channel.Channel, engine.Metrics, error)
}

// runOn runs source → build(...) → sink over recs as one atom on p.
func runOn(t *testing.T, id engine.PlatformID, p platform, recs []data.Record, build func(*plan.Builder, *plan.Operator) *plan.Operator) {
	b := plan.NewBuilder("overlap")
	b.Collect(build(b, b.Source("s", plan.Collection(recs))))
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Error(err)
		return
	}
	atom := &engine.TaskAtom{Kind: engine.AtomCompute, Platform: id, Ops: pp.Ops, Exits: []*physical.Operator{pp.SinkOp}}
	if _, _, err := p.ExecuteAtom(context.Background(), atom, engine.AtomInputs{}); err != nil {
		t.Errorf("%s: %v", id, err)
	}
}

// TestOneHelperBudget is the fence for the one helper budget: a java
// forcing of six windows and a sparksim stage of 13 288 rows, both wide
// enough to ask for every helper there is, run at once again and again at
// GOMAXPROCS 4. However their tasks interleave, at most GOMAXPROCS−1 = 3
// helpers are in flight at any time — read on every row the stage's UDF
// sees, on whichever goroutine — and every one is back once both have
// ended.
func TestOneHelperBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var peak atomic.Int64
	sample := func() {
		n, _ := engine.Helpers()
		for {
			was := peak.Load()
			if int64(n) <= was || peak.CompareAndSwap(was, int64(n)) {
				return
			}
		}
	}
	rows := make([]data.Record, 6*4096)
	for i := range rows {
		rows[i] = data.NewRecord(data.Int(int64(i)), data.Float(float64(i%100)))
	}
	java, spark := javaengine.New(), sparksim.New(sparksim.Config{JobOverhead: time.Millisecond})
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			runOn(t, javaengine.ID, java, rows, func(b *plan.Builder, s *plan.Operator) *plan.Operator {
				return b.AggregateCols(b.FilterWhere(s, 1, plan.Less, data.Float(50)), plan.AggSum, plan.AggMax)
			})
		}()
		go func() {
			defer wg.Done()
			runOn(t, sparksim.ID, spark, rows[:3*4096+1000], func(b *plan.Builder, s *plan.Operator) *plan.Operator {
				return b.Map(s, func(r data.Record) (data.Record, error) {
					sample()
					return r, nil
				})
			})
		}()
		wg.Wait()
	}
	if n := peak.Load(); n > 3 || n < 1 {
		t.Errorf("%d helpers in flight at once at GOMAXPROCS 4, want 1 to 3", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for n, _ := engine.Helpers(); n != 0 && time.Now().Before(deadline); n, _ = engine.Helpers() {
		time.Sleep(time.Millisecond)
	}
	if n, started := engine.Helpers(); n != 0 || started > 3 {
		t.Errorf("%d helpers in flight after both engines ended, %d started", n, started)
	}
}
