package relengine

import (
	"context"
	"slices"
	"sync"
	"testing"

	"rheem/internal/core/channel"
	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

func peopleSchema() *data.Schema {
	return data.MustSchema(
		data.Field{Name: "id", Type: data.KindInt},
		data.Field{Name: "name", Type: data.KindString},
		data.Field{Name: "age", Type: data.KindInt},
	)
}

func seedPeople(t *testing.T, tab *Table) {
	t.Helper()
	err := tab.Insert(
		data.NewRecord(data.Int(1), data.Str("ann"), data.Int(30)),
		data.NewRecord(data.Int(2), data.Str("bob"), data.Int(25)),
		data.NewRecord(data.Int(3), data.Str("cyd"), data.Int(30)),
		data.NewRecord(data.Int(4), data.Str("dan"), data.Int(41)),
	)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCatalogBasics(t *testing.T) {
	db := NewDB()
	tab, err := db.CreateTable("people", peopleSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("people", peopleSchema()); err == nil {
		t.Error("duplicate table accepted")
	}
	got, ok := db.Table("people")
	if !ok || got != tab {
		t.Error("table lookup failed")
	}
	if len(db.TableNames()) != 1 {
		t.Error("TableNames wrong")
	}
	db.DropTable("people")
	if _, ok := db.Table("people"); ok {
		t.Error("dropped table still present")
	}
}

func TestInsertValidatesSchema(t *testing.T) {
	db := NewDB()
	tab, _ := db.CreateTable("people", peopleSchema())
	if err := tab.Insert(data.NewRecord(data.Str("wrong"), data.Str("x"), data.Int(1))); err == nil {
		t.Error("type-mismatched row accepted")
	}
	if err := tab.Insert(data.NewRecord(data.Int(1))); err == nil {
		t.Error("arity-mismatched row accepted")
	}
	if tab.NumRows() != 0 {
		t.Error("failed insert left rows behind")
	}
}

func TestRowsIsACopy(t *testing.T) {
	db := NewDB()
	tab, _ := db.CreateTable("people", peopleSchema())
	seedPeople(t, tab)
	rows := tab.Rows()
	rows[0] = data.NewRecord(data.Int(99), data.Str("hack"), data.Int(0))
	if tab.Rows()[0].Field(0).Int() == 99 {
		t.Error("Rows exposed internal storage")
	}
}

func TestTempTablesAndRelease(t *testing.T) {
	db := NewDB()
	tmp := db.tempTable([]data.Record{data.NewRecord(data.Int(1))})
	if tmp.NumRows() != 1 {
		t.Error("temp table rows wrong")
	}
	if _, ok := db.Table(tmp.Name); !ok {
		t.Error("temp table not in catalog")
	}
	if _, err := db.CreateTable("keep", peopleSchema()); err != nil {
		t.Fatal(err)
	}
	db.ReleaseTemp()
	if _, ok := db.Table(tmp.Name); ok {
		t.Error("temp table survived ReleaseTemp")
	}
	if _, ok := db.Table("keep"); !ok {
		t.Error("ReleaseTemp dropped a real table")
	}
}

func TestConvertersRoundTrip(t *testing.T) {
	p := New(nil, Config{})
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
// capacity clipped: a consumer appending to what it was handed and the
// table taking an Insert — at once, under -race — each keep their own.
func TestTableExportIsAClippedView(t *testing.T) {
	p := New(nil, Config{})
	reg := channel.NewRegistry()
	p.RegisterConverters(reg)
	tab, err := p.db.CreateTable("people", peopleSchema())
	if err != nil {
		t.Fatal(err)
	}
	seedPeople(t, tab)
	person := func(id int64) data.Record { return data.NewRecord(data.Int(id), data.Str("eve"), data.Int(52)) }
	if err := tab.Insert(person(5)); err != nil { // the fifth row leaves the backing array room
		t.Fatal(err)
	}
	out, _, _, err := reg.Convert(TableChannel(tab), channel.Collection)
	if err != nil {
		t.Fatal(err)
	}
	exported, err := out.AsCollection()
	if err != nil {
		t.Fatal(err)
	}
	if len(exported) != 5 || cap(exported) != 5 || &exported[0] != &tab.rowsUnsafe()[0] {
		t.Fatalf("export has len %d cap %d, want the table's 5 rows themselves, capacity clipped", len(exported), cap(exported))
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		exported = append(exported, person(99))
	}()
	go func() {
		defer wg.Done()
		if err := tab.Insert(person(6)); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	ids := func(recs []data.Record) (out []int64) {
		for _, r := range recs {
			out = append(out, r.Field(0).Int())
		}
		return out
	}
	if got, want := ids(exported), []int64{1, 2, 3, 4, 5, 99}; !slices.Equal(got, want) {
		t.Errorf("exported rows after append: ids %v, want %v", got, want)
	}
	if got, want := ids(tab.Rows()), []int64{1, 2, 3, 4, 5, 6}; !slices.Equal(got, want) {
		t.Errorf("table rows after Insert: ids %v, want %v", got, want)
	}
}

func TestExecuteAtomAggregation(t *testing.T) {
	p := New(nil, Config{})
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
	if m.Sim < p.cfg.ConnectOverhead {
		t.Errorf("sim %v below connect overhead", m.Sim)
	}
	tab, err := tableOf(exits[pp.SinkOp.ID])
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Errorf("aggregation rows = %d", tab.NumRows())
	}
}

func TestSimTimeProfileFavoursRelationalOps(t *testing.T) {
	cfg := Config{RelationalBoost: 0.5, UDFPenalty: 2.0}
	cfg.defaults()
	d := &datasetOps{p: New(nil, cfg)}
	d.charge(100, true)
	relSim := d.sim
	d2 := &datasetOps{p: New(nil, cfg)}
	d2.charge(100, false)
	if relSim >= d2.sim {
		t.Errorf("relational charge %v not cheaper than UDF charge %v", relSim, d2.sim)
	}
}

func TestProfileAndFormat(t *testing.T) {
	p := New(nil, Config{})
	if !p.Profile().Relational {
		t.Error("not marked relational")
	}
	if p.NativeFormat() != channel.Table {
		t.Error("native format wrong")
	}
	if p.DB() == nil {
		t.Error("DB not exposed")
	}
}
