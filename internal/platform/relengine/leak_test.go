//go:build go1.24

package relengine

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// TestTempTablesAndRelease: no catalog holds a statement's result, so
// once nothing reads an atom's exit table the collector takes it, while
// the platform that made it is still alive. Weak pointers are Go 1.24's,
// hence the file's build line; the module itself asks for Go 1.22.
func TestTempTablesAndRelease(t *testing.T) {
	p := New()
	exit := func() weak.Pointer[Table] {
		b := plan.NewBuilder("leak")
		s := b.Source("s", plan.Collection(people()))
		m := b.Map(s, func(r data.Record) (data.Record, error) { return r.Append(data.Int(1)), nil })
		f := b.Filter(m, func(r data.Record) (bool, error) { return r.Field(2).Int() >= 30, nil })
		b.Collect(f)
		pp, err := physical.FromLogical(b.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		atom := &engine.TaskAtom{ID: 0, Kind: engine.AtomCompute, Platform: ID,
			Ops: pp.Ops, Exits: []*physical.Operator{pp.SinkOp}}
		exits, _, err := p.ExecuteAtom(context.Background(), atom, engine.AtomInputs{})
		if err != nil {
			t.Fatal(err)
		}
		tab, err := tableOf(exits[0])
		if err != nil {
			t.Fatal(err)
		}
		if tab.NumRows() != 3 {
			t.Fatalf("exit table has %d rows, want 3", tab.NumRows())
		}
		return weak.Make(tab)
	}()
	runtime.GC()
	if exit.Value() != nil {
		t.Error("the exit table outlived its last reader: something still holds it")
	}
	runtime.KeepAlive(p)
}
