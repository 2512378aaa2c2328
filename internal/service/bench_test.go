package service

import (
	"context"
	"testing"
	"time"
)

// BenchmarkBuiltinJob is one job of each built-in past admission, at the
// repository benchmark's sizes; allocs/op is what
// TestBuiltinAllocationGate pins.
func BenchmarkBuiltinJob(b *testing.B) {
	svc := benchService(b)
	for _, g := range builtinGolden[:3] {
		b.Run(g.spec.Workload, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runBuiltin(b, svc, g.spec)
			}
		})
	}
}

// BenchmarkSubmit is admission alone — validate, name, rate-limit, queue,
// ack — for a workload spec and for SQL, which compiles at the door.
// Nothing runs: a first job holds the only active slot, itself blocked on
// the scheduler pool's only slot, which the benchmark holds; every job
// after it waits in the queue and is taken out by a cancel, off the clock.
func BenchmarkSubmit(b *testing.B) {
	for name, spec := range map[string]Spec{
		"workload": builtinGolden[0].spec,
		"sql":      {Kind: KindSQL, Query: "SELECT well, COUNT(*) AS n FROM sensors WHERE hour < 40 GROUP BY well"},
	} {
		b.Run(name, func(b *testing.B) {
			svc, err := New(Config{CatalogScale: 2000, MaxActiveJobs: 1, PoolSize: 1, DefaultDeadline: time.Hour, MaxDeadline: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			defer svc.Kill()
			if err := svc.pool.Acquire(context.Background()); err != nil {
				b.Fatal(err)
			}
			defer svc.pool.Release()
			head, err := svc.Submit(Request{Spec: spec})
			for err == nil && head.State != StateRunning {
				time.Sleep(time.Millisecond)
				head, err = svc.Status(head.ID)
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := svc.Submit(Request{Spec: spec})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if _, err := svc.Cancel(st.ID); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
