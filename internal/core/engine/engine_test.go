package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"rheem/internal/core/channel"
	"rheem/internal/core/cost"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

// fakePlatform is a minimal Platform for registry and runner tests. Its
// native format is Collection and its single execution operator
// appends a marker field to every record.
type fakePlatform struct {
	id PlatformID
}

func (f *fakePlatform) ID() PlatformID                       { return f.id }
func (f *fakePlatform) Profile() Profile                     { return Profile{Description: "fake"} }
func (f *fakePlatform) NativeFormat() channel.Format         { return channel.Collection }
func (f *fakePlatform) RegisterConverters(*channel.Registry) {}

func (f *fakePlatform) ExecuteAtom(ctx context.Context, atom *TaskAtom, inputs AtomInputs) ([]*channel.Channel, Metrics, error) {
	d := &fakeOps{}
	exits, err := RunAtom(ctx, d, atom, inputs)
	return exits, Metrics{Jobs: 1, Sim: time.Millisecond}, err
}

type fakeOps struct{}

func (fakeOps) FromChannel(ch *channel.Channel) (any, error) { return ch.AsCollection() }
func (fakeOps) ToChannel(ds any) (*channel.Channel, error) {
	return channel.NewCollection(ds.([]data.Record)), nil
}
func (fakeOps) ExecOp(_ context.Context, op *physical.Operator, inputs []any) (any, error) {
	lop := op.Logical
	switch lop.Kind() {
	case plan.KindSource:
		return lop.Source()()
	case plan.KindMap:
		in := inputs[0].([]data.Record)
		out := make([]data.Record, len(in))
		for i, r := range in {
			nr, err := lop.Map()(r)
			if err != nil {
				return nil, err
			}
			out[i] = nr
		}
		return out, nil
	case plan.KindUnion:
		l := inputs[0].([]data.Record)
		r := inputs[1].([]data.Record)
		return append(append([]data.Record{}, l...), r...), nil
	case plan.KindSink:
		return inputs[0], nil
	}
	return inputs[0], nil
}

func TestRegistryPlatformRegistration(t *testing.T) {
	r := NewRegistry()
	p := &fakePlatform{id: "fake"}
	if err := r.RegisterPlatform(p); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterPlatform(p); err == nil {
		t.Error("duplicate platform accepted")
	}
	got, ok := r.Platform("fake")
	if !ok || got != p {
		t.Error("Platform lookup failed")
	}
	if _, ok := r.Platform("ghost"); ok {
		t.Error("ghost platform found")
	}
	if len(r.Platforms()) != 1 {
		t.Error("Platforms() wrong")
	}
}

func TestRegistryMappings(t *testing.T) {
	r := NewRegistry()
	p := &fakePlatform{id: "fake"}
	if err := r.RegisterPlatform(p); err != nil {
		t.Fatal(err)
	}
	// Mapping for an unregistered platform fails.
	err := r.RegisterMapping(Mapping{Platform: "ghost", Kind: plan.KindMap, Cost: cost.ConstModel(cost.Cost{})})
	if err == nil {
		t.Error("mapping for ghost platform accepted")
	}
	// Mapping without a cost model fails (cost models are mandatory
	// plugins).
	err = r.RegisterMapping(Mapping{Platform: "fake", Kind: plan.KindMap})
	if err == nil {
		t.Error("mapping without cost model accepted")
	}
	must := func(m Mapping) {
		t.Helper()
		if err := r.RegisterMapping(m); err != nil {
			t.Fatal(err)
		}
	}
	must(Mapping{Platform: "fake", Kind: plan.KindGroupBy, Algo: physical.HashGroupBy,
		Cost: cost.ConstModel(cost.Cost{CPU: 1}), Hint: "hash"})
	must(Mapping{Platform: "fake", Kind: plan.KindGroupBy, Algo: physical.Default,
		Cost: cost.ConstModel(cost.Cost{CPU: 2}), Hint: "fallback"})

	m, ok := r.MappingFor("fake", plan.KindGroupBy, physical.HashGroupBy)
	if !ok || m.Hint != "hash" {
		t.Error("exact mapping not found")
	}
	// Unknown algorithm falls back to the Default mapping.
	m, ok = r.MappingFor("fake", plan.KindGroupBy, physical.SortGroupBy)
	if !ok || m.Hint != "fallback" {
		t.Error("fallback mapping not used")
	}
	if _, ok := r.MappingFor("fake", plan.KindJoin, physical.HashJoin); ok {
		t.Error("mapping for undeclared kind found")
	}
	// Only the two accepted mappings are registered, in order.
	if ms := r.Mappings(); len(ms) != 2 || ms[0].Hint != "hash" || ms[1].Hint != "fallback" {
		t.Errorf("Mappings = %+v", ms)
	}
}

func TestMetricsAdd(t *testing.T) {
	var m Metrics
	m.Add(Metrics{Wall: 1, Sim: 2, Jobs: 3, InRecords: 4, OutRecords: 5, ShuffledBytes: 6, MovedBytes: 7, Conversions: 8, Retries: 9})
	m.Add(Metrics{Wall: 1, Jobs: 1})
	if m.Wall != 2 || m.Jobs != 4 || m.Retries != 9 || m.Conversions != 8 {
		t.Errorf("Metrics.Add = %+v", m)
	}
}

func buildAtomFixture(t *testing.T) (*physical.Plan, *TaskAtom) {
	t.Helper()
	b := plan.NewBuilder("fixture")
	s := b.Source("s", plan.Collection([]data.Record{
		data.NewRecord(data.Int(1)), data.NewRecord(data.Int(2)),
	}))
	m := b.Map(s, func(r data.Record) (data.Record, error) {
		return r.Append(data.Str("x")), nil
	})
	b.Collect(m)
	pp, err := physical.FromLogical(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	atom := &TaskAtom{ID: 0, Kind: AtomCompute, Platform: "fake", Ops: pp.Ops, Exits: []*physical.Operator{pp.SinkOp}}
	return pp, atom
}

func TestRunAtomWholePlan(t *testing.T) {
	_, atom := buildAtomFixture(t)
	exits, err := RunAtom(context.Background(), fakeOps{}, atom, AtomInputs{})
	if err != nil {
		t.Fatal(err)
	}
	out := exits[0]
	recs, err := out.AsCollection()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Len() != 2 {
		t.Errorf("atom output = %v", recs)
	}
}

func TestRunAtomExternalInput(t *testing.T) {
	pp, _ := buildAtomFixture(t)
	// Atom holding only the Map and Sink; the source output arrives as
	// an external channel.
	var mapOp *physical.Operator
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindMap {
			mapOp = op
		}
	}
	atom := &TaskAtom{ID: 1, Kind: AtomCompute, Platform: "fake",
		Ops: []*physical.Operator{mapOp, pp.SinkOp}, Exits: []*physical.Operator{pp.SinkOp}}
	in := channel.NewCollection([]data.Record{data.NewRecord(data.Int(9))})
	inputs := NewAtomInputs(atom)
	inputs[0][0] = in // the Map, at position 0, reads it on slot 0
	exits, err := RunAtom(context.Background(), fakeOps{}, atom, inputs)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := exits[0].AsCollection()
	if len(recs) != 1 || recs[0].Field(0).Int() != 9 {
		t.Errorf("external-input atom output = %v", recs)
	}
}

func TestRunAtomMissingInput(t *testing.T) {
	pp, _ := buildAtomFixture(t)
	var mapOp *physical.Operator
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindMap {
			mapOp = op
		}
	}
	atom := &TaskAtom{ID: 2, Kind: AtomCompute, Platform: "fake",
		Ops: []*physical.Operator{mapOp}, Exits: []*physical.Operator{mapOp}}
	if _, err := RunAtom(context.Background(), fakeOps{}, atom, AtomInputs{}); err == nil {
		t.Error("missing external input not detected")
	}
}

func TestRunAtomCancelled(t *testing.T) {
	_, atom := buildAtomFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunAtom(ctx, fakeOps{}, atom, AtomInputs{}); err == nil {
		t.Error("cancelled context not honoured")
	}
}

// panicOnExport is fakeOps with an export that panics, the shape a lazily
// evaluated dataset fails in.
type panicOnExport struct{ fakeOps }

func (panicOnExport) ToChannel(any) (*channel.Channel, error) { panic("export blew up") }

// TestRunAtomRecoversPanics: a panic in an operator or in the export of
// an exit comes back as a Fatal error naming the atom and what was
// running, with the stack — never as a dead goroutine.
func TestRunAtomRecoversPanics(t *testing.T) {
	pp, atom := buildAtomFixture(t)
	for _, op := range pp.Ops {
		if op.Kind() == plan.KindMap {
			op.Logical = plan.NewSynthetic(plan.KindMap, op.Logical.Name(), plan.MapFunc(func(r data.Record) (data.Record, error) {
				return data.NewRecord(r.Field(7)), nil // past the record
			}))
		}
	}
	_, err := RunAtom(context.Background(), fakeOps{}, atom, AtomInputs{})
	if !IsFatal(err) {
		t.Fatalf("panicking UDF returned %v, want a Fatal error", err)
	}
	for _, want := range []string{"engine: atom#0: Map", "panicked: runtime error: index out of range [7]", "engine.RunAtom"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	pp, atom = buildAtomFixture(t)
	exits, err := RunAtom(context.Background(), panicOnExport{}, atom, AtomInputs{})
	if exits != nil || !IsFatal(err) || !strings.Contains(err.Error(), pp.SinkOp.Name()+" panicked: export blew up") {
		t.Errorf("panicking export returned %v, %v; want a Fatal error naming %s", exits, err, pp.SinkOp.Name())
	}
}

func TestRunAtomRejectsLoopAtoms(t *testing.T) {
	atom := &TaskAtom{Kind: AtomLoop}
	if _, err := RunAtom(context.Background(), fakeOps{}, atom, AtomInputs{}); err == nil {
		t.Error("loop atom accepted by RunAtom")
	}
}

func TestTaskAtomContainsAndString(t *testing.T) {
	pp, atom := buildAtomFixture(t)
	if !atom.Contains(pp.Ops[0].ID) {
		t.Error("Contains false for member")
	}
	if atom.Contains(999) {
		t.Error("Contains true for non-member")
	}
	if atom.String() == "" {
		t.Error("empty atom String")
	}
}

func TestDescribeMappings(t *testing.T) {
	r := NewRegistry()
	p := &fakePlatform{id: "fake"}
	if err := r.RegisterPlatform(p); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterMapping(Mapping{Platform: "fake", Kind: plan.KindGroupBy,
		Algo: physical.HashGroupBy, Cost: cost.ConstModel(cost.Cost{}), Hint: "no order"}); err != nil {
		t.Fatal(err)
	}
	out := r.DescribeMappings()
	for _, want := range []string{"fake", "GroupBy", "hash-groupby", "no order"} {
		if !strings.Contains(out, want) {
			t.Errorf("DescribeMappings misses %q:\n%s", want, out)
		}
	}
}

// BenchmarkMappingFor prices one mapping lookup on a registry shaped
// like the default one — three platforms, every operator kind, two
// algorithms on some — for an exact algorithm match and for the
// Default-algorithm fallback.
func BenchmarkMappingFor(b *testing.B) {
	r := NewRegistry()
	model := cost.ConstModel(cost.Cost{CPU: time.Microsecond})
	ids := []PlatformID{"one", "two", "three"}
	for _, id := range ids {
		if err := r.RegisterPlatform(&fakePlatform{id: id}); err != nil {
			b.Fatal(err)
		}
		for k := plan.KindSource; k <= plan.KindSink; k++ {
			algos := []physical.Algorithm{physical.Default}
			if k == plan.KindJoin {
				algos = []physical.Algorithm{physical.HashJoin, physical.SortMergeJoin}
			}
			for _, a := range algos {
				if err := r.RegisterMapping(Mapping{Platform: id, Kind: k, Algo: a, Cost: model}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for _, c := range []struct {
		name string
		kind plan.OpKind
		algo physical.Algorithm
	}{
		{"exact", plan.KindJoin, physical.SortMergeJoin},
		{"fallback", plan.KindSort, physical.SortGroupBy},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := r.MappingFor(ids[i%len(ids)], c.kind, c.algo); !ok {
					b.Fatal("mapping not found")
				}
			}
		})
	}
}
