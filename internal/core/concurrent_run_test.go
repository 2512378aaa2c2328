package core

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"rheem/internal/core/engine"
	"rheem/internal/core/executor"
	"rheem/internal/core/fault"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
)

// TestConcurrentRunsMatchSerial: Run leases its state — the run, its audit
// ledger, the top plan's channel table and the scheduler's graph — from a
// free list, so two runs at once must never share one. Eight goroutines run,
// all at once and in staggered order, the conformance battery split across
// two platforms on every target (multi-atom, cross-platform plans), a Repeat
// over a wide body, and a plan on a platform whose fault schedule fails each
// atom's first attempt; every run's records and atom spans must be what the
// same job gave alone.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	reg := confRegistry(t)
	type job struct {
		name string
		run  func() (string, error)
	}
	var jobs []job
	for _, c := range conformanceBattery() {
		for _, target := range confPlatforms {
			jobs = append(jobs, job{c.name + "/" + string(target), func() (string, error) {
				return runRendered(reg, c.plan("concurrent-"+c.name, cell{}), cell{platform: target, place: fed}.options, executor.Options{})
			}})
		}
	}
	jobs = append(jobs,
		job{"repeat-wide", func() (string, error) {
			return runRendered(reg, wideRepeat(), func(*physical.Plan) optimizer.Options { return optimizer.Options{} }, executor.Options{})
		}},
		job{"retried", func() (string, error) {
			// A registry of its own, so every run's atom fails its first
			// attempt and no other job sees the failure.
			reg := engine.NewRegistry()
			if _, err := javaengine.Register(reg); err != nil {
				return "", err
			}
			flaky := fault.Wrap(javaengine.New(), fault.Options{ID: "flaky", Schedules: []fault.Schedule{fault.FailFirstN(1, nil)}})
			if err := fault.Register(reg, flaky, javaengine.ID); err != nil {
				return "", err
			}
			b := plan.NewBuilder("retried")
			src := rowSource(b, "src", confRecords(97, 0))
			b.Collect(b.Map(src, func(r data.Record) (data.Record, error) { return r.Append(data.Int(1)), nil }))
			return runRendered(reg, b.MustBuild(), func(*physical.Plan) optimizer.Options {
				return optimizer.Options{FixedPlatform: flaky.ID()}
			}, executor.Options{RetryBackoff: -1})
		}})

	want := make([]string, len(jobs))
	for i, j := range jobs {
		got, err := j.run()
		if err != nil {
			t.Fatalf("%s alone: %v", j.name, err)
		}
		want[i] = got
	}
	if !strings.Contains(want[len(want)-1], "×2") {
		t.Fatalf("the fault schedule forced no retry:\n%s", want[len(want)-1])
	}
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				i := (k + g*len(jobs)/workers) % len(jobs)
				got, err := jobs[i].run()
				if err != nil {
					t.Errorf("%s run alongside others: %v", jobs[i].name, err)
					return
				}
				if got != want[i] {
					t.Errorf("%s run alongside others:\n%s\nalone:\n%s", jobs[i].name, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// runRendered plans and runs lp and renders what the run gave: its records
// in canonical order, then one line per atom span — plan, iteration, atom,
// platform and attempts — sorted, since concurrent atoms end in any order.
func runRendered(reg *engine.Registry, lp *plan.Plan, opts func(*physical.Plan) optimizer.Options, ropts executor.Options) (string, error) {
	pp, err := physical.FromLogical(lp)
	if err != nil {
		return "", err
	}
	ep, err := optimizer.Optimize(pp, reg, opts(pp))
	if err != nil {
		return "", err
	}
	res, err := executor.Run(ep, reg, ropts)
	if err != nil {
		return "", err
	}
	lines := make([]string, 0, len(res.Records)+len(res.Trace.Spans))
	for _, r := range res.Records {
		var buf bytes.Buffer
		if _, err := data.WriteBinary(&buf, []data.Record{r}); err != nil {
			return "", err
		}
		lines = append(lines, fmt.Sprintf("%x", buf.Bytes()))
	}
	sort.Strings(lines)
	spans := make([]string, 0, len(res.Trace.Spans))
	for _, sp := range res.Trace.Spans {
		spans = append(spans, fmt.Sprintf("%s %s/%d atom %d @%s ×%d", sp.Kind, sp.Plan, sp.Iteration, sp.AtomID, sp.Platform, len(sp.Attempts)))
	}
	sort.Strings(spans)
	return strings.Join(append(lines, spans...), "\n"), nil
}
