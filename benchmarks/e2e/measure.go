package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// phase is one measured closed loop: every client sends its next job
// only after the previous one is verified.
type phase struct {
	latencies []time.Duration // one per attempted job, all clients
	wall      time.Duration
	attempted int
	failed    int

	// Deltas of the Go runtime and the process over the phase.
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
	cpu                 time.Duration
	peakHeap            uint64
}

// jobFunc runs and verifies job i for one client; an error is a failed
// job (execution error or an answer that differs from the reference).
type jobFunc func(client, i int) error

// limits says when a closed loop stops: after maxJobs jobs (0 = no
// cap), or once dur has elapsed and at least minJobs are done — the
// duration the caller was given to measure for, with a floor so the
// percentiles keep enough samples. minJobs == maxJobs runs an exact
// count.
type limits struct {
	minJobs, maxJobs int
	dur              time.Duration
}

func exactly(n int) limits { return limits{minJobs: n, maxJobs: n} }

// runLoop drives `clients` closed-loop clients. Client c runs jobs c,
// c+clients, c+2·clients, … so the job sequence each client sees is a
// function of the seed alone; the limits are split evenly between them.
func runLoop(clients int, lim limits, job jobFunc) phase {
	share := func(n int) int { return (n + clients - 1) / clients }
	minJobs, maxJobs := share(lim.minJobs), share(lim.maxJobs)
	lat := make([][]time.Duration, clients)
	failed := make([]int, clients)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := make([]time.Duration, 0, max(2*minJobs, maxJobs))
			for n := 0; ; n++ {
				if (maxJobs > 0 && n >= maxJobs) || (n >= minJobs && time.Since(start) >= lim.dur) {
					break
				}
				t0 := time.Now()
				err := job(c, c+n*clients)
				mine = append(mine, time.Since(t0))
				if err != nil {
					if failed[c] < 3 {
						fmt.Fprintf(os.Stderr, "e2e: job %d failed: %v\n", c+n*clients, err)
					}
					failed[c]++
				}
			}
			lat[c] = mine
		}(c)
	}
	wg.Wait()
	p := phase{wall: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&after)
	for c := range lat {
		p.latencies = append(p.latencies, lat[c]...)
		p.failed += failed[c]
	}
	p.attempted = len(p.latencies)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.mallocs = after.Mallocs - before.Mallocs
	p.gcCycles = after.NumGC - before.NumGC
	p.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	p.peakHeap = after.HeapSys
	return p
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile is the nearest-rank q-quantile of the samples.
func percentile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(float64(len(s))*q+0.5) - 1
	return s[min(max(idx, 0), len(s)-1)]
}

func median(d []time.Duration) time.Duration { return percentile(d, 0.5) }

// medianOf is the median of plain numbers (set-up times, per-job layer
// self times).
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeN runs f at least `floor` times and until `budget` is spent,
// returning each call's duration. It is how the layer probes are
// time-boxed.
func timeN(floor int, budget time.Duration, f func(i int) error) ([]time.Duration, error) {
	var out []time.Duration
	start := time.Now()
	for i := 0; i < floor || time.Since(start) < budget; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}
