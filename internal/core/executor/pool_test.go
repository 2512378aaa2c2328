package executor

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rheem/internal/core/engine"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
)

// enterGauge counts one more execution in flight, raising the peak if
// this is a new high, and returns the function that counts it out.
func enterGauge(inFlight, peak *int64) (leave func()) {
	cur := atomic.AddInt64(inFlight, 1)
	for {
		p := atomic.LoadInt64(peak)
		if cur <= p || atomic.CompareAndSwapInt64(peak, p, cur) {
			break
		}
	}
	return func() { atomic.AddInt64(inFlight, -1) }
}

// poolPlan builds a fan-out plan whose map branches report their
// concurrency through the shared gauge.
func poolPlan(t *testing.T, branches, recs int, inFlight, peak *int64, hold time.Duration) *physical.Plan {
	t.Helper()
	src := make([]data.Record, recs)
	for i := range src {
		src[i] = data.NewRecord(data.Int(int64(i)))
	}
	b := plan.NewBuilder("pool")
	s := b.Source("src", plan.Collection(src))
	s.CardHint = int64(recs)
	legs := make([]*plan.Operator, branches)
	for i := range legs {
		legs[i] = b.Map(s, func(r data.Record) (data.Record, error) {
			defer enterGauge(inFlight, peak)()
			time.Sleep(hold)
			return r, nil
		})
	}
	out := legs[0]
	for _, l := range legs[1:] {
		out = b.Union(out, l)
	}
	b.Collect(b.Count(out))
	lp, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	pp, err := physical.FromLogical(lp)
	if err != nil {
		t.Fatalf("physical: %v", err)
	}
	return pp
}

// TestPoolBoundsAcrossRuns drives several concurrent runs through one
// small pool and asserts the observed peak concurrency of the
// instrumented map atoms never exceeds the pool size, even though the
// per-run Parallelism would allow far more.
func TestPoolBoundsAcrossRuns(t *testing.T) {
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatalf("register: %v", err)
	}
	const poolSize = 2
	pool := NewPool(poolSize)
	var inFlight, peak int64

	const runs = 4
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for i := 0; i < runs; i++ {
		pp := poolPlan(t, 4, 8, &inFlight, &peak, 2*time.Millisecond)
		ep, err := optimizer.Optimize(pp, reg, optimizer.Options{FixedPlatform: javaengine.ID})
		if err != nil {
			t.Fatalf("optimize: %v", err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Run(ep, reg, Options{Parallelism: 8, Pool: pool})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if got := atomic.LoadInt64(&peak); got > poolSize {
		t.Fatalf("peak concurrent atom executions %d exceeds pool size %d", got, poolSize)
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool has %d slots still held after all runs finished", pool.InUse())
	}
}

// TestPoolReleasedBeforeRunReturns pins the scheduler's
// release-before-signal order: an atom gives its slot back before the
// dispatcher hears it finished, so once Run returns nothing of the run
// holds a slot. With the release deferred past the done message a
// fraction of the iterations read InUse() == 1.
func TestPoolReleasedBeforeRunReturns(t *testing.T) {
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatalf("register: %v", err)
	}
	pool := NewPool(1)
	var inFlight, peak int64
	pp := poolPlan(t, 2, 1, &inFlight, &peak, 0)
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{FixedPlatform: javaengine.ID})
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := Run(ep, reg, Options{Parallelism: 4, Pool: pool}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got := pool.InUse(); got != 0 {
			t.Fatalf("run %d returned holding %d pool slot(s)", i, got)
		}
	}
}

// TestPoolLoopBodiesDoNotDeadlock runs a looping plan through a
// 1-slot pool: if loop atoms held slots while their bodies executed,
// this would deadlock instantly.
func TestPoolLoopBodiesDoNotDeadlock(t *testing.T) {
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatalf("register: %v", err)
	}
	b := plan.NewBuilder("pool-loop")
	src := b.Source("src", plan.Collection([]data.Record{data.NewRecord(data.Int(1))}))
	bb := plan.NewBodyBuilder("pool-loop.body")
	state := bb.LoopInput("state")
	bb.Collect(bb.Map(state, func(r data.Record) (data.Record, error) {
		return data.NewRecord(data.Int(r.Field(0).Int() + 1)), nil
	}))
	body, err := bb.Build()
	if err != nil {
		t.Fatalf("body: %v", err)
	}
	b.Collect(b.Repeat(src, 3, body))
	lp, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	pp, err := physical.FromLogical(lp)
	if err != nil {
		t.Fatalf("physical: %v", err)
	}
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{FixedPlatform: javaengine.ID})
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		res, err := Run(ep, reg, Options{Pool: NewPool(1)})
		if err == nil && len(res.Records) != 1 {
			err = fmt.Errorf("got %d records, want 1", len(res.Records))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("looping run deadlocked on a 1-slot pool")
	}
}

// TestPoolAcquireRespectsCancellation cancels a run whose atoms are
// parked waiting for a slot another holder never releases quickly; the
// run must return the context error promptly.
func TestPoolAcquireRespectsCancellation(t *testing.T) {
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		t.Fatalf("register: %v", err)
	}
	pool := NewPool(1)
	// Occupy the only slot out-of-band.
	if err := pool.Acquire(context.Background()); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer pool.Release()

	var inFlight, peak int64
	pp := poolPlan(t, 2, 4, &inFlight, &peak, 0)
	ep, err := optimizer.Optimize(pp, reg, optimizer.Options{FixedPlatform: javaengine.ID})
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ep, reg, Options{Context: ctx, Pool: pool})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run succeeded with its only pool slot held elsewhere")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not return while waiting for a pool slot")
	}
}

// TestPoolTryAcquire pins the non-blocking acquisition: a full pool
// answers false at once, a released slot can be won.
func TestPoolTryAcquire(t *testing.T) {
	pool := NewPool(1)
	if !pool.TryAcquire() {
		t.Fatal("TryAcquire failed on an empty pool")
	}
	if pool.TryAcquire() {
		t.Fatal("TryAcquire succeeded on a full pool")
	}
	if pool.InUse() != 1 {
		t.Fatalf("InUse = %d after one successful and one refused TryAcquire", pool.InUse())
	}
	pool.Release()
	if !pool.TryAcquire() {
		t.Fatal("TryAcquire failed after the slot was released")
	}
	pool.Release()
}
