package executor

import (
	"context"
	"fmt"
	"testing"

	"rheem/internal/core/channel"
	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
)

// noopPlatform executes every atom by handing back the exit channels it
// was built with: no work and no allocation, so a Run over it measures
// the executor alone.
type noopPlatform struct {
	exits [][]*channel.Channel // by atom ID: its exits
}

func (*noopPlatform) ID() engine.PlatformID                { return "noop" }
func (*noopPlatform) NativeFormat() channel.Format         { return channel.Collection }
func (*noopPlatform) RegisterConverters(*channel.Registry) {}
func (p *noopPlatform) ExecuteAtom(_ context.Context, atom *engine.TaskAtom, _ engine.AtomInputs) ([]*channel.Channel, engine.Metrics, error) {
	return p.exits[atom.ID], engine.Metrics{Jobs: 1}, nil
}

// noopPlan hand-builds an execution plan of n independent single-source
// atoms on a fresh noop platform — the optimizer would fuse them — with
// exact estimates, so the cardinality audit runs and flags nothing. The
// last atom's output stands in for the sink's.
func noopPlan(tb testing.TB, n int) (*optimizer.ExecutionPlan, *engine.Registry) {
	tb.Helper()
	b := plan.NewBuilder("noop")
	b.Collect(b.Source("s", plan.Collection(nil)))
	src := b.MustBuild().Operators()[0]

	p := &noopPlatform{exits: make([][]*channel.Channel, n)}
	reg := engine.NewRegistry()
	if err := reg.RegisterPlatform(p); err != nil {
		tb.Fatal(err)
	}
	pp := &physical.Plan{Name: fmt.Sprintf("noop-%d", n)}
	ep := &optimizer.ExecutionPlan{
		Physical:   pp,
		Assignment: make([]engine.PlatformID, n),
		Estimates:  &cost.Estimates{Cards: make([]int64, n)},
		OpCosts:    make([]cost.Cost, n),
	}
	for i := 0; i < n; i++ {
		op := &physical.Operator{ID: i, Logical: src, Algo: physical.Default}
		pp.Ops = append(pp.Ops, op)
		pp.SinkOp = op
		atom := &engine.TaskAtom{ID: i, Kind: engine.AtomCompute, Platform: p.ID(),
			Ops: []*physical.Operator{op}, Exits: []*physical.Operator{op}}
		atom.Seal()
		ep.Atoms = append(ep.Atoms, atom)
		ep.Assignment[i] = p.ID()
		p.exits[i] = []*channel.Channel{channel.NewCollection(nil)}
	}
	return ep, reg
}

// BenchmarkRunNoopAtoms is the scheduler's own number (ROADMAP 1c): what
// one Run costs around atoms that do nothing, alone and through a shared
// host pool.
func BenchmarkRunNoopAtoms(b *testing.B) {
	for _, atoms := range []int{1, 8} {
		for _, pooled := range []bool{false, true} {
			b.Run(fmt.Sprintf("atoms=%d/pooled=%t", atoms, pooled), func(b *testing.B) {
				ep, reg := noopPlan(b, atoms)
				var opts Options
				if pooled {
					opts.Pool = NewPool(4)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Run(ep, reg, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// runAllocationGate is the allocation count of one Run over the
// one-atom noop plan, pinned one above its reading since the tracer
// hands its trace over instead of copying it and adopts the audit
// records it is given (9 at GOMAXPROCS 1 to 4, 20 readings; 12 while
// Audit copied the records, Snapshot copied both lists and KindEst was a
// map; 18 while each Run made its state — the run, its audit ledger,
// the top scope's channels and the scheduler's graph — sized from the
// plan instead of leasing it, 20 while every atom ran on a goroutine of
// its own, 26 with its channels, audit ledger and producer index in
// maps, a seen set per atom and the top scope allocated apart, 30 before
// the executor became a run object).
const runAllocationGate = 10

// TestRunAllocationGate pins what a Run allocates around one no-op atom.
func TestRunAllocationGate(t *testing.T) {
	ep, reg := noopPlan(t, 1)
	got := testing.AllocsPerRun(200, func() {
		if _, err := Run(ep, reg, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per Run of a one-atom plan (gate %d)", got, runAllocationGate)
	if got > runAllocationGate {
		t.Errorf("%.0f allocations per Run of a one-atom plan, gate is %d", got, runAllocationGate)
	}
}
