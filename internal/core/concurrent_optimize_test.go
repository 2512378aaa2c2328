package core

import (
	"strings"
	"sync"
	"testing"

	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// TestConcurrentOptimizeMatchesSerial: the optimizer works in scratch
// leased from a free list, one per plan level, so two plannings at once —
// or a loop body's and its enclosing plan's — must never share one. Eight
// goroutines plan the conformance battery under every golden variant, a
// 32-operator chain and a Repeat over a wide body, all at once and in
// staggered order, and every plan must render as it did planned alone.
func TestConcurrentOptimizeMatchesSerial(t *testing.T) {
	reg := confRegistry(t)
	type job struct {
		name  string
		build func() *plan.Plan
		opts  func(*physical.Plan) optimizer.Options
	}
	var jobs []job
	for _, v := range goldenVariants(t) {
		for _, c := range conformanceBattery() {
			jobs = append(jobs, job{c.name + "/" + v.name, func() *plan.Plan { return c.plan("concurrent-"+c.name, cell{}) }, v.opts})
		}
		jobs = append(jobs,
			job{"chain-32/" + v.name, func() *plan.Plan { return filterChain("chain-32", 32) }, v.opts},
			job{"repeat-wide/" + v.name, wideRepeat, v.opts})
	}
	render := func(j job) string {
		pp, err := physical.FromLogical(j.build())
		if err != nil {
			return "translate: " + err.Error()
		}
		ep, err := optimizer.Optimize(pp, reg, j.opts(pp))
		if err != nil {
			return "error: " + err.Error()
		}
		var sb strings.Builder
		renderPlan(&sb, "", ep)
		return sb.String()
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		want[i] = render(j)
	}
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				i := (k + g*len(jobs)/workers) % len(jobs)
				if got := render(jobs[i]); got != want[i] {
					t.Errorf("%s planned alongside others:\n%s\nalone:\n%s", jobs[i].name, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// filterChain is a source, width−2 filters that keep every row, and a
// sink: one plan level of width operators.
func filterChain(name string, width int) *plan.Plan {
	b := plan.NewBuilder(name)
	op := rowSource(b, "src", confRecords(97, 0))
	for i := 0; i < width-2; i++ {
		op = b.FilterWhere(op, 0, plan.Less, data.Int(1_000_000))
	}
	b.Collect(op)
	return b.MustBuild()
}

// wideRepeat is a Repeat whose body is 18 operators wide between a
// narrower plan around it, so the two levels' scratches differ in size.
func wideRepeat() *plan.Plan {
	bb := plan.NewBodyBuilder("body")
	op := bb.LoopInput("st")
	for i := 0; i < 16; i++ {
		op = bb.FilterWhere(op, 0, plan.Less, data.Int(1_000_000))
	}
	bb.Collect(op)
	b := plan.NewBuilder("repeat-wide")
	src := rowSource(b, "src", confRecords(97, 0))
	loop := b.Repeat(b.FilterWhere(src, 0, plan.Less, data.Int(1_000_000)), 3, bb.MustBuild())
	b.Collect(b.FilterWhere(loop, 0, plan.Less, data.Int(1_000_000)))
	return b.MustBuild()
}
