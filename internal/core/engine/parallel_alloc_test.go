// Not built under the race detector: its instrumentation allocates on the
// program's behalf.

//go:build !race

package engine

import (
	"runtime"
	"sync"
	"testing"
)

// TestRunAllocationsIndependentOfTasks: Run leases its state — the ring and
// a signal per task — from a free list, so a run of 74 tasks (relengine's
// count of xplat-udf's source) allocates what a run of 8 does, give or take
// one object. With the state made per Run they read 13 and 83 objects at
// GOMAXPROCS 2.
func TestRunAllocationsIndependentOfTasks(t *testing.T) {
	task := func(int, bool) error { return nil }
	// Fill the free list with states grown to the widest run: the last one
	// out of a run may be a helper, which puts the state back after the
	// next Run has leased one.
	var wg sync.WaitGroup
	for g := 0; g < 4*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				_ = Run(74, 73, task)
			}
		}()
	}
	wg.Wait()
	measure := func(n int) float64 {
		return testing.AllocsPerRun(200, func() {
			if err := Run(n, n-1, task); err != nil {
				t.Fatal(err)
			}
		})
	}
	narrow, wide := measure(8), measure(74)
	t.Logf("GOMAXPROCS %d: %.2f allocations per Run of 8 tasks, %.2f of 74", runtime.GOMAXPROCS(0), narrow, wide)
	if d := wide - narrow; d > 1 || d < -1 {
		t.Errorf("Run allocates %.2f for 8 tasks and %.2f for 74: something is per task", narrow, wide)
	}
}
