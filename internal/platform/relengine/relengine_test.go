package relengine

import (
	"context"
	"slices"
	"strings"
	"testing"

	"rheem/internal/core/channel"
	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// people are four rows of (id, name, age).
func people() []data.Record {
	return []data.Record{
		data.NewRecord(data.Int(1), data.Str("ann"), data.Int(30)),
		data.NewRecord(data.Int(2), data.Str("bob"), data.Int(25)),
		data.NewRecord(data.Int(3), data.Str("cyd"), data.Int(30)),
		data.NewRecord(data.Int(4), data.Str("dan"), data.Int(41)),
	}
}

// TestTableBytesMatchesTotalBytes: a table's channel counts its rows'
// bytes exactly, whether the count runs serially (one window) or a window
// a task on the helper runtime (two windows, many, a ragged last one).
func TestTableBytesMatchesTotalBytes(t *testing.T) {
	for _, n := range []int{0, 1, countWindow, countWindow + 1, 2 * countWindow, 9*countWindow + 17} {
		rows := make([]data.Record, n)
		for i := range rows {
			rows[i] = data.NewRecord(data.Int(int64(i)), data.Str(strings.Repeat("x", i%13)))
		}
		ch := tableChannel(&Table{rows: rows})
		if want := data.TotalBytes(rows); ch.Bytes != want {
			t.Errorf("%d rows: the channel counts %d bytes, data.TotalBytes %d", n, ch.Bytes, want)
		}
	}
}

func TestConvertersRoundTrip(t *testing.T) {
	p := New()
	reg := channel.NewRegistry()
	p.RegisterConverters(reg)
	in := channel.NewCollection([]data.Record{
		data.NewRecord(data.Int(1)), data.NewRecord(data.Int(2)),
	})
	tch, _, _, err := reg.Convert(in, channel.Table)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := tableOf(tch)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Errorf("table rows = %d", tab.NumRows())
	}
	back, _, _, err := reg.Convert(tch, channel.Collection)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := back.AsCollection()
	if len(recs) != 2 {
		t.Errorf("round trip rows = %d", len(recs))
	}
}

// The Table → Collection export is a view of the table's rows with its
// capacity clipped: a consumer appending to what it was handed writes
// storage of its own, never the spare room in the table's backing array.
func TestTableExportIsAClippedView(t *testing.T) {
	p := New()
	reg := channel.NewRegistry()
	p.RegisterConverters(reg)
	person := func(id int64) data.Record { return data.NewRecord(data.Int(id), data.Str("eve"), data.Int(52)) }
	backing := append(make([]data.Record, 0, 8), people()...) // room past the fifth row
	tab := &Table{rows: append(backing, person(5))}
	out, _, _, err := reg.Convert(tableChannel(tab), channel.Collection)
	if err != nil {
		t.Fatal(err)
	}
	exported, err := out.AsCollection()
	if err != nil {
		t.Fatal(err)
	}
	if len(exported) != 5 || cap(exported) != 5 || &exported[0] != &tab.rows[0] {
		t.Fatalf("export has len %d cap %d, want the table's 5 rows themselves, capacity clipped", len(exported), cap(exported))
	}
	exported = append(exported, person(99))
	ids := func(recs []data.Record) (out []int64) {
		for _, r := range recs {
			out = append(out, r.Field(0).Int())
		}
		return out
	}
	if got, want := ids(exported), []int64{1, 2, 3, 4, 5, 99}; !slices.Equal(got, want) {
		t.Errorf("exported rows after append: ids %v, want %v", got, want)
	}
	if got, want := ids(tab.rows), []int64{1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Errorf("table rows after the append: ids %v, want %v", got, want)
	}
	if spare := tab.rows[:6][5]; spare.Len() != 0 {
		t.Errorf("the append wrote %v into the table's backing array", spare)
	}
}

func TestExecuteAtomAggregation(t *testing.T) {
	p := New()
	b := plan.NewBuilder("agg")
	s := b.Source("s", plan.Collection([]data.Record{
		data.NewRecord(data.Int(1), data.Float(10)),
		data.NewRecord(data.Int(1), data.Float(5)),
		data.NewRecord(data.Int(2), data.Float(7)),
	}))
	g := b.ReduceByKey(s, plan.FieldKey(0), plan.SumField(1))
	b.Collect(g)
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	atom := &engine.TaskAtom{ID: 0, Kind: engine.AtomCompute, Platform: ID,
		Ops: pp.Ops, Exits: []*physical.Operator{pp.SinkOp}}
	exits, m, err := p.ExecuteAtom(context.Background(), atom, engine.AtomInputs{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Sim < connectOverhead {
		t.Errorf("sim %v below connect overhead", m.Sim)
	}
	tab, err := tableOf(exits[0])
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Errorf("aggregation rows = %d", tab.NumRows())
	}
}

func TestSimTimeProfileFavoursRelationalOps(t *testing.T) {
	d := &datasetOps{}
	d.charge(100, true)
	relSim := d.sim
	d2 := &datasetOps{}
	d2.charge(100, false)
	if relSim >= d2.sim {
		t.Errorf("relational charge %v not cheaper than UDF charge %v", relSim, d2.sim)
	}
}

func TestProfileAndFormat(t *testing.T) {
	p := New()
	if p.NativeFormat() != channel.Table {
		t.Error("native format wrong")
	}
}
