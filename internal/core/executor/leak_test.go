//go:build go1.24

package executor

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"rheem/internal/core/channel"
	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// mintPlatform executes every atom by minting a fresh exit: three records
// in a new slice. The first atom's slice is watched through a weak pointer.
type mintPlatform struct {
	first weak.Pointer[data.Record]
}

func (*mintPlatform) ID() engine.PlatformID                { return "mint" }
func (*mintPlatform) NativeFormat() channel.Format         { return channel.Collection }
func (*mintPlatform) RegisterConverters(*channel.Registry) {}
func (p *mintPlatform) ExecuteAtom(_ context.Context, atom *engine.TaskAtom, _ engine.AtomInputs) ([]*channel.Channel, engine.Metrics, error) {
	recs := make([]data.Record, 3)
	for i := range recs {
		recs[i] = data.NewRecord(data.Int(int64(atom.ID*10 + i)))
	}
	if atom.ID == 0 {
		p.first = weak.Make(&recs[0])
	}
	return []*channel.Channel{channel.NewCollection(recs)}, engine.Metrics{Jobs: 1}, nil
}

// TestReleasedRunPinsNothing: Run leases its state from a free list, and
// the release clears every slot of it, so the exit of an intermediate atom
// — read by the next atom, never part of the result — is the collector's
// once Run returns, while the Result stays alive. Weak pointers are Go
// 1.24's, hence the file's build line.
func TestReleasedRunPinsNothing(t *testing.T) {
	b := plan.NewBuilder("mint")
	b.Collect(b.Source("s", plan.Collection(nil)))
	src := b.MustBuild().Operators()[0]
	p := &mintPlatform{}
	reg := engine.NewRegistry()
	if err := reg.RegisterPlatform(p); err != nil {
		t.Fatal(err)
	}
	// Two atoms in a chain: the second consumes the first's exit.
	op0 := &physical.Operator{ID: 0, Logical: src, Algo: physical.Default}
	op1 := &physical.Operator{ID: 1, Logical: src, Algo: physical.Default, Inputs: []*physical.Operator{op0}}
	ep := &optimizer.ExecutionPlan{
		Physical:   &physical.Plan{Name: "mint", Ops: []*physical.Operator{op0, op1}, SinkOp: op1},
		Assignment: []engine.PlatformID{p.ID(), p.ID()},
		Estimates:  &cost.Estimates{Cards: []int64{3, 3}},
		OpCosts:    make([]cost.Cost, 2),
	}
	for i, op := range ep.Physical.Ops {
		atom := &engine.TaskAtom{ID: i, Kind: engine.AtomCompute, Platform: p.ID(),
			Ops: []*physical.Operator{op}, Exits: []*physical.Operator{op}}
		atom.Seal()
		ep.Atoms = append(ep.Atoms, atom)
	}
	res, err := Run(ep, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 3 || res.Records[0].Field(0).Int() != 10 {
		t.Fatalf("result %v, want the second atom's three records", res.Records)
	}
	runtime.GC()
	if p.first.Value() != nil {
		t.Error("the first atom's exit outlived the run: a released run state still holds it")
	}
	runtime.KeepAlive(res)
}
