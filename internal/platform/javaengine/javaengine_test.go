package javaengine

import (
	"context"
	"testing"

	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
)

func runPlanOn(t *testing.T, p *Platform, build func(b *plan.Builder)) ([]data.Record, engine.Metrics) {
	t.Helper()
	b := plan.NewBuilder("t")
	build(b)
	lp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := physical.FromLogical(lp)
	if err != nil {
		t.Fatal(err)
	}
	exits, m, err := p.ExecuteAtom(context.Background(), inAtom(pp), engine.AtomInputs{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := exits[0].AsCollection()
	if err != nil {
		t.Fatal(err)
	}
	return recs, m
}

func TestFullOperatorSet(t *testing.T) {
	p := New()
	src := []data.Record{
		data.NewRecord(data.Int(3), data.Str("c")),
		data.NewRecord(data.Int(1), data.Str("a")),
		data.NewRecord(data.Int(1), data.Str("a")),
		data.NewRecord(data.Int(2), data.Str("b")),
	}
	recs, m := runPlanOn(t, p, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(src))
		d := b.Distinct(s)
		so := b.Sort(d, plan.FieldKey(0), true)
		b.Collect(so)
	})
	if len(recs) != 3 {
		t.Fatalf("distinct+sort got %d records", len(recs))
	}
	if recs[0].Field(0).Int() != 3 || recs[2].Field(0).Int() != 1 {
		t.Errorf("descending sort wrong: %v", recs)
	}
	if m.Jobs != 1 || m.Sim <= m.Wall {
		t.Errorf("metrics = %+v (sim must include startup overhead)", m)
	}
}

func TestSampleAndCount(t *testing.T) {
	p := New()
	var src []data.Record
	for i := int64(0); i < 20; i++ {
		src = append(src, data.NewRecord(data.Int(i)))
	}
	recs, _ := runPlanOn(t, p, func(b *plan.Builder) {
		s := b.Source("s", plan.Collection(src))
		sm := b.Sample(s, 5)
		c := b.Count(sm)
		b.Collect(c)
	})
	if len(recs) != 1 || recs[0].Field(0).Int() != 5 {
		t.Errorf("sample+count = %v", recs)
	}
}

func TestGroupByAlgorithms(t *testing.T) {
	src := []data.Record{
		data.NewRecord(data.Int(1)), data.NewRecord(data.Int(2)), data.NewRecord(data.Int(1)),
	}
	for _, algo := range []physical.Algorithm{physical.HashGroupBy, physical.SortGroupBy} {
		p := New()
		b := plan.NewBuilder("g")
		s := b.Source("s", plan.Collection(src))
		g := b.GroupBy(s, plan.FieldKey(0), func(k data.Value, grp []data.Record) ([]data.Record, error) {
			return []data.Record{data.NewRecord(k, data.Int(int64(len(grp))))}, nil
		})
		b.Collect(g)
		pp, err := physical.FromLogical(b.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range pp.Ops {
			if op.Kind() == plan.KindGroupBy {
				op.Algo = algo
			}
		}
		atom := &engine.TaskAtom{Kind: engine.AtomCompute, Platform: ID,
			Ops: pp.Ops, Exits: []*physical.Operator{pp.SinkOp}}
		exits, _, err := p.ExecuteAtom(context.Background(), atom, engine.AtomInputs{})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		recs, _ := exits[0].AsCollection()
		if len(recs) != 2 {
			t.Errorf("%s: %d groups", algo, len(recs))
		}
	}
}

func TestLoopKindsRejected(t *testing.T) {
	d := &datasetOps{}
	op := &physical.Operator{Logical: plan.NewSynthetic(plan.KindLoopInput, "li", nil)}
	if _, err := d.ExecOp(context.Background(), op, nil); err == nil {
		t.Error("LoopInput executed by platform")
	}
}

func TestRegisterProvidesAllMappings(t *testing.T) {
	reg := engine.NewRegistry()
	if _, err := Register(reg); err != nil {
		t.Fatal(err)
	}
	kinds := []plan.OpKind{
		plan.KindSource, plan.KindMap, plan.KindFlatMap, plan.KindFilter,
		plan.KindGroupBy, plan.KindReduceByKey, plan.KindReduce, plan.KindSort,
		plan.KindDistinct, plan.KindUnion, plan.KindJoin, plan.KindThetaJoin,
		plan.KindCartesian, plan.KindCount, plan.KindSample, plan.KindSink,
		plan.KindRepeat, plan.KindDoWhile, plan.KindLoopInput,
	}
	mapped := map[plan.OpKind]bool{}
	for _, m := range reg.Mappings() {
		if m.Platform != ID {
			t.Errorf("kind %s: mapping on platform %s", m.Kind, m.Platform)
		}
		mapped[m.Kind] = true
	}
	for _, k := range kinds {
		if !mapped[k] {
			t.Errorf("kind %s: no mapping", k)
		}
	}
	// The IEJoin mapping is cheaper than nested loop at scale — the
	// extensibility story's point.
	ie, ok1 := reg.MappingFor(ID, plan.KindThetaJoin, physical.IEJoin)
	nl, ok2 := reg.MappingFor(ID, plan.KindThetaJoin, physical.NestedLoop)
	if !ok1 || !ok2 {
		t.Fatal("theta join mappings missing")
	}
	cards := []int64{100000, 100000}
	if ie.Cost(nil, cards, 1000).Total() >= nl.Cost(nil, cards, 1000).Total() {
		t.Error("IEJoin not cheaper than nested loop at 1e5×1e5")
	}
}
