package core

import (
	"context"
	"slices"
	"testing"

	"rheem/internal/core/channel"
	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// TestAtomExitsByPosition: an atom with two exits gets them back by
// position on every engine — exits[i] is atom.Exits[i]'s, as AtomInputs
// is indexed by position — in whichever order the atom lists them.
func TestAtomExitsByPosition(t *testing.T) {
	reg := confRegistry(t)
	recs := make([]data.Record, 10)
	for i := range recs {
		recs[i] = data.NewRecord(data.Int(int64(i)))
	}
	b := plan.NewBuilder("two-exits")
	tens := b.Map(b.Source("s", plan.Collection(recs)), func(r data.Record) (data.Record, error) {
		return data.NewRecord(data.Int(r.Field(0).Int() * 10)), nil
	})
	b.Collect(b.Filter(tens, func(r data.Record) (bool, error) { return r.Field(0).Int() >= 50, nil }))
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	mapOp := pp.Ops[slices.IndexFunc(pp.Ops, func(op *physical.Operator) bool { return op.Kind() == plan.KindMap })]
	want := map[*physical.Operator][]int64{
		mapOp:     {0, 10, 20, 30, 40, 50, 60, 70, 80, 90},
		pp.SinkOp: {50, 60, 70, 80, 90},
	}
	for _, id := range confPlatforms {
		p, _ := reg.Platform(id)
		for _, order := range [][]*physical.Operator{{mapOp, pp.SinkOp}, {pp.SinkOp, mapOp}} {
			atom := &engine.TaskAtom{Kind: engine.AtomCompute, Platform: id, Ops: pp.Ops, Exits: order}
			exits, _, err := p.ExecuteAtom(context.Background(), atom, engine.AtomInputs{})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(exits) != len(order) {
				t.Fatalf("%s: %d exits for %d", id, len(exits), len(order))
			}
			for i, ex := range order {
				conv, _, _, err := reg.Channels().Convert(exits[i], channel.Collection)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				out, err := conv.AsCollection()
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				got := make([]int64, len(out))
				for j, r := range out {
					got[j] = r.Field(0).Int()
				}
				slices.Sort(got)
				if !slices.Equal(got, want[ex]) {
					t.Errorf("%s: exits[%d] holds %v, want %s's %v", id, i, got, ex.Name(), want[ex])
				}
			}
		}
	}
}
